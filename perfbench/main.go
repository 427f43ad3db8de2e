// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds cmd/tgserve and this driver from the
// checkout, then runs
//
//	perfbench -server BIN -dir WORKDIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it starts a journaled tgserve (-data on a fresh
// directory, so every acknowledged write is fsync'd), loads the
// workload's pinned world, and drives the workload's seeded traffic open
// loop: reads on one connection, writes on a second, each request timed
// from its due time. It reports set-up time, the server's CPU time per
// read and per write, and its heap. With --trace 1 it replays the same
// operation stream in-process on one goroutine, timing calls into each
// layer, and reports the per-layer metrics. Either way it checks the
// answers (see gate.go) and prints one JSON result as the last line of
// standard output.
//
// workloads.json records the worlds, mixes, rates, server flags, why
// each metric and workload was chosen, and the layer → end-to-end
// predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"takegrant/internal/graph"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and the sample count behind each.
type report struct {
	result
	samples map[string]int
	notes   []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, "INCORRECT: "+fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name from workloads.json")
		seed     = flag.Int64("seed", 1, "seed of the operation stream")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1: in-process traced replay reporting per-layer metrics")
		bin      = flag.String("server", "", "tgserve binary built from the checkout under test")
		dir      = flag.String("dir", ".bench_build", "work directory for worlds, journals and traces")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *bin, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, bin, dir string) error {
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	wl, err := cfg.workload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	procs := clientGOMAXPROCS
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	// The driver keeps every sample in memory; a lazier collector keeps
	// its pauses out of the latencies it measures.
	debug.SetGCPercent(400)

	data, world, err := loadWorld(filepath.Join(dir, "worlds"), wl.World)
	if err != nil {
		return err
	}
	runDir := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	b := &bench{cfg: cfg, wl: wl, seed: seed, seconds: seconds, data: data, world: world, runDir: runDir, traceDir: filepath.Join(dir, "traces")}
	if b.hot, err = hotSet(world, hotSubjects); err != nil {
		return err
	}
	rep := newReport()
	if traced {
		err = b.traced(rep)
	} else {
		if bin == "" {
			return fmt.Errorf("-server is required")
		}
		err = b.endToEnd(bin, rep)
	}
	if err != nil {
		return err
	}
	printReport(rep)
	if !rep.Correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

// bench is one run's fixed inputs.
type bench struct {
	cfg      *Config
	wl       *Workload
	seed     int64
	seconds  int
	data     []byte
	world    *graph.Graph
	runDir   string
	traceDir string
	hot      []graph.ID
}

func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(&b, "%-28s %14.6f %-6s n=%d\n", k, m.Value, m.Unit, rep.samples[k])
	}
	for _, n := range rep.notes {
		fmt.Fprintln(&b, n)
	}
	fmt.Print(b.String())
	out, _ := json.Marshal(rep.result) // plain numbers and strings; cannot fail
	fmt.Println(string(out))
}

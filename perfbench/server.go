package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one tgserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error
}

// startServer runs bin on a free loopback port with a journal in dataDir
// and the given flags, and waits until it answers /healthz.
func startServer(bin, dataDir, logPath string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-data", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the driver, whatever ends the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("tgserve exited during start-up: %v (log: %s)", s.err, logPath)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("tgserve did not become healthy in 30s (log: %s)", logPath)
		}
	}
}

// stop asks the server to drain and exit, kills it if it does not, and
// returns once the process has ended.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may have just exited; Wait below settles it
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// getJSON GETs path on c and decodes the JSON answer into v.
func getJSON(c doer, path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// statsView is the part of GET /stats the benchmark reads: the counters
// of each layer it reports. Fields absent from a server's report read 0.
type statsView struct {
	Revision uint64 `json:"revision"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Guard struct {
		Applied uint64 `json:"applied"`
		Refused uint64 `json:"refused"`
	} `json:"guard"`
	Hierarchy struct {
		Rebuilds uint64 `json:"rebuilds"`
		Patches  uint64 `json:"patches"`
	} `json:"hierarchy"`
	Indexes map[string]struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Patches     uint64 `json:"patches"`
		Invalidates uint64 `json:"invalidates"`
		Rebuilds    uint64 `json:"rebuilds"`
	} `json:"indexes"`
	FastPath struct {
		Closure uint64 `json:"closure"`
		Search  uint64 `json:"search"`
	} `json:"fast_path"`
	Journal *struct {
		Appended  uint64 `json:"appended"`
		Snapshots uint64 `json:"snapshots"`
	} `json:"journal"`
}

// counts flattens the counters the benchmark reports by name.
func (s statsView) counts() map[string]float64 {
	c := map[string]float64{
		"revision":              float64(s.Revision),
		"qcache.hits":           float64(s.Cache.Hits),
		"qcache.misses":         float64(s.Cache.Misses),
		"guard.applied":         float64(s.Guard.Applied),
		"guard.refused":         float64(s.Guard.Refused),
		"hierarchy.patches":     float64(s.Hierarchy.Patches),
		"hierarchy.rebuilds":    float64(s.Hierarchy.Rebuilds),
		"analysis.row_builds":   float64(s.Indexes["reach_closure"].Misses),
		"analysis.row_hits":     float64(s.Indexes["reach_closure"].Hits),
		"graph.snapshot_builds": float64(s.Indexes["snapshot"].Rebuilds),
	}
	c["fastpath.closure"] = float64(s.FastPath.Closure)
	c["fastpath.search"] = float64(s.FastPath.Search)
	inv := 0.0
	for _, ix := range s.Indexes {
		inv += float64(ix.Invalidates)
	}
	c["derived.invalidates"] = inv
	if s.Journal != nil {
		c["journal.appended"] = float64(s.Journal.Appended)
		c["journal.snapshots"] = float64(s.Journal.Snapshots)
	}
	return c
}

// statsDelta is after-before for every counter.
func statsDelta(before, after statsView) map[string]float64 {
	b, a := before.counts(), after.counts()
	d := make(map[string]float64, len(a))
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// heapGoalMB reads the server's heap goal (memstats.NextGC) from
// /debug/vars.
func heapGoalMB(c doer) (float64, error) {
	var v struct {
		Memstats struct {
			NextGC uint64 `json:"NextGC"`
		} `json:"memstats"`
	}
	if err := getJSON(c, "/debug/vars", &v); err != nil {
		return 0, err
	}
	return float64(v.Memstats.NextGC) / (1 << 20), nil
}

// cpuTime reads the server process's CPU time: the sum over its
// threads of the time each has run, from /proc in nanoseconds. The
// kernel leaves out the time the hypervisor gave other guests, so it
// counts the work the server did, not the host's load. (A Go process
// keeps its threads, so none of the time leaves the sum.)
func (s *server) cpuTime() (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("task %s schedstat: %w", t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

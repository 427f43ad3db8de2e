package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// workloads.json is the benchmark's full record: per workload the world
// and its SHA-256, the fixed rates and write mix, why the workload exists
// and which end-to-end metric each layer metric should move; plus the
// tgserve flags every run uses. BENCHMARK.json names the workloads and
// metrics; this file holds everything else.
//
//go:embed workloads.json
var configJSON []byte

// Config is the decoded workloads.json.
type Config struct {
	// ServerFlags are passed to every tgserve this benchmark starts, after
	// -addr, -data and -snapshot-every.
	ServerFlags []string `json:"server_flags"`
	// SnapshotEvery is the journal's snapshot cadence: tgserve's
	// -snapshot-every, and the traced run's in-process server and journal
	// replica.
	SnapshotEvery int `json:"snapshot_every"`
	// WarmupSeconds of the workload's own traffic run before each timed
	// window, so qcache, journal and allocator reach their steady state.
	WarmupSeconds float64    `json:"warmup_seconds"`
	Workloads     []Workload `json:"workloads"`
}

// World pins one generated world.
type World struct {
	Scenario string `json:"scenario"`
	Vertices int    `json:"vertices"`
	Seed     int64  `json:"seed"`
	SHA256   string `json:"sha256"`
}

// Workload is one traffic mix against one world.
type Workload struct {
	Name  string `json:"name"`
	World World  `json:"world"`
	// ReadRate is read requests (single queries and batches) per second
	// at the fixed rate.
	ReadRate float64 `json:"read_rate"`
	// WriteRate is writes per second at the fixed rate, drawn by
	// WriteMix weight (create, grant, grant-w, revoke).
	WriteRate float64            `json:"write_rate"`
	WriteMix  map[string]float64 `json:"write_mix"`
}

// The parameters every workload shares.
const (
	// hotSubjects is the size of the fixed set every query source and
	// every write's actor is drawn from.
	hotSubjects = 4
	// zipfS skews query objects over the world's vertices.
	zipfS = 1.1
	// batchShare of the read requests are batchItems-item batches.
	batchShare = 0.15
	batchItems = 16
	// setupRepeats is how many times setup (PUT /graph, warm the hot
	// set) runs; setup_s is their median.
	setupRepeats = 15
	// saturateAfter: an operation not sent within this long after it was
	// due is dropped and counted failed (saturated).
	saturateAfter = 2 * time.Second
	// oracleSamples is how many verdicts on the final graph the
	// correctness gate checks against the search-based procedures.
	oracleSamples = 32
	// clientGOMAXPROCS caps the driver's own scheduler.
	clientGOMAXPROCS = 2
)

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

func (c *Config) workload(name string) (*Workload, error) {
	var names []string
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
		names = append(names, c.Workloads[i].Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

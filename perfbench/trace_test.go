package main

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"takegrant/internal/tgio"
)

// TestTracedCountsRepeat replays each churn workload's stream twice with
// one seed and checks that every count the traced run reports comes out
// the same: the in-process replay is sequential, so the sequence of
// graph states, refusals, row builds and cache outcomes is a function of
// the seed alone.
func TestTracedCountsRepeat(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupSeconds = 0.2
	for _, name := range []string{"share-churn", "hier-churn"} {
		t.Run(name, func(t *testing.T) {
			wl0, err := cfg.workload(name)
			if err != nil {
				t.Fatal(err)
			}
			wl := *wl0
			wl.World.Vertices = 2000
			wl.ReadRate *= 2
			wl.WriteRate *= 4
			data, err := generateWorld(wl.World)
			if err != nil {
				t.Fatal(err)
			}
			counts := func() map[string]float64 {
				g, err := tgio.DecodeBinary(bufio.NewReader(bytes.NewReader(data)))
				if err != nil {
					t.Fatal(err)
				}
				b := &bench{cfg: cfg, wl: &wl, seed: 7, seconds: 1, data: data, world: g,
					runDir: t.TempDir(), traceDir: t.TempDir()}
				if b.hot, err = hotSet(g, hotSubjects); err != nil {
					t.Fatal(err)
				}
				rep := newReport()
				if err := b.traced(rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed > 0 {
					t.Fatalf("traced run failed: %v", rep.notes)
				}
				out := map[string]float64{}
				for k, m := range rep.Metrics {
					if m.Unit == "count" || m.Unit == "ratio" || m.Unit == "B" {
						out[k] = m.Value
					}
				}
				return out
			}
			first, second := counts(), counts()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("counts differ between two replays of seed 7:\n%v\n%v", first, second)
			}
			if first["analysis.row_builds"] == 0 {
				t.Errorf("a churn replay built no rows: %v", first)
			}
		})
	}
}

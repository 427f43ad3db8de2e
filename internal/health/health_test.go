package health

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptedProbe returns err[i] for the i-th probe of each peer,
// repeating the last entry once the script runs out.
type scriptedProbe struct {
	mu     sync.Mutex
	script map[string][]error
	calls  map[string]int
}

func (s *scriptedProbe) probe(_ context.Context, peer string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls == nil {
		s.calls = make(map[string]int)
	}
	i := s.calls[peer]
	s.calls[peer]++
	seq := s.script[peer]
	if len(seq) == 0 {
		return nil
	}
	if i >= len(seq) {
		i = len(seq) - 1
	}
	return seq[i]
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDownAfterThresholdAndHalfOpenRecovery(t *testing.T) {
	boom := errors.New("connection refused")
	sp := &scriptedProbe{script: map[string][]error{
		// ok, then 3 failures (threshold), then recovery.
		"http://a": {nil, boom, boom, boom, nil},
	}}
	// The down state lasts a single probe interval before the scripted
	// recovery, too short to catch by sampling Healthy: the test reads the
	// transition sequence the prober reports instead.
	flips := make(chan string, 16)
	p := New([]string{"http://a"}, Options{
		Interval:      2 * time.Millisecond,
		FailThreshold: 3,
		Probe:         sp.probe,
		OnTransition: func(peer string, up bool) {
			flips <- fmt.Sprintf("%s=%v", peer, up)
		},
	})
	if !p.Healthy("http://a") {
		t.Fatal("peer must start presumed up (fail open)")
	}
	p.Start()
	defer p.Stop()

	want := []string{"http://a=false", "http://a=true"}
	var got []string
	timeout := time.After(5 * time.Second)
	for len(got) < len(want) {
		select {
		case f := <-flips:
			got = append(got, f)
		case <-timeout:
			t.Fatalf("timed out waiting for transitions: got %v, want %v", got, want)
		}
	}
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	// The script ends on success, so the peer stays up from here on.
	if !p.Healthy("http://a") {
		t.Fatal("peer not up after half-open recovery")
	}
	st := p.Snapshot()["http://a"]
	if !st.Up || st.Transitions < 2 {
		t.Fatalf("snapshot = %+v, want up with >=2 transitions", st)
	}
}

func TestStaysUpBelowThreshold(t *testing.T) {
	boom := errors.New("timeout")
	sp := &scriptedProbe{script: map[string][]error{
		// Two failures (below threshold 3), then success — never down.
		"http://a": {boom, boom, nil},
	}}
	var flips int
	var mu sync.Mutex
	p := New([]string{"http://a"}, Options{
		Interval:      2 * time.Millisecond,
		FailThreshold: 3,
		Probe:         sp.probe,
		OnTransition: func(string, bool) {
			mu.Lock()
			flips++
			mu.Unlock()
		},
	})
	p.Start()
	defer p.Stop()
	waitCond(t, "probes complete", func() bool {
		return p.Snapshot()["http://a"].Probes >= 4
	})
	if !p.Healthy("http://a") {
		t.Fatal("peer went down below the failure threshold")
	}
	mu.Lock()
	defer mu.Unlock()
	if flips != 0 {
		t.Fatalf("got %d transitions, want 0", flips)
	}
}

func TestProbeTimeoutCountsAsFailure(t *testing.T) {
	p := New([]string{"http://slow"}, Options{
		Interval:      2 * time.Millisecond,
		Timeout:       5 * time.Millisecond,
		FailThreshold: 2,
		Probe: func(ctx context.Context, _ string) error {
			<-ctx.Done() // hang until the per-probe timeout fires
			return ctx.Err()
		},
	})
	p.Start()
	defer p.Stop()
	waitCond(t, "slow peer marked down", func() bool { return !p.Healthy("http://slow") })
	st := p.Snapshot()["http://slow"]
	if st.LastErr == "" {
		t.Fatal("want a recorded probe error")
	}
}

func TestUnknownPeerFailsOpen(t *testing.T) {
	p := New([]string{"http://a"}, Options{Probe: func(context.Context, string) error { return nil }})
	if !p.Healthy("http://nobody-watches-me") {
		t.Fatal("unknown peers must be presumed healthy")
	}
}

func TestStopBeforeStartIsSafe(t *testing.T) {
	p := New([]string{"http://a"}, Options{})
	p.Stop() // must not panic
}

package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStallShowsInEveryRequestDueDuringIt stalls the server for 100ms
// and checks that every request due during the stall is charged the
// rest of it: latency runs from the due time, so requests queued behind
// the stalled one count the wait. Timing from send, as a closed-loop or
// send-timed driver does, would miss the stall on all of them but the
// first.
func TestStallShowsInEveryRequestDueDuringIt(t *testing.T) {
	const (
		stallAt  = 200 * time.Millisecond
		stallFor = 100 * time.Millisecond
	)
	var (
		mu    sync.Mutex
		first time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		mu.Lock()
		if first.IsZero() {
			first = now
		}
		start := first.Add(stallAt)
		mu.Unlock()
		if end := start.Add(stallFor); !now.Before(start) && now.Before(end) {
			time.Sleep(time.Until(end))
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	var reads []op
	for t := time.Duration(0); t < 500*time.Millisecond; t += time.Millisecond {
		reads = append(reads, op{due: t, method: "GET", path: "/q", qs: []query{{}}})
	}
	res := runPhase(c, c, phase{reads: reads}, nil, time.Second)

	mu.Lock()
	stallStart := first.Add(stallAt).Sub(res.origin)
	mu.Unlock()
	stallEnd := stallStart + stallFor
	due, fromSendMissed := 0, 0
	for _, s := range res.reads {
		if s.status != http.StatusOK {
			t.Fatalf("request due %v: status %d", s.due, s.status)
		}
		// A request due inside the stall, sent late because the one
		// before it was still stalled.
		if s.due < stallStart+time.Millisecond || s.due >= stallEnd {
			continue
		}
		due++
		if want := stallEnd - s.due; s.latency() < want {
			t.Errorf("request due %v: latency %v, want at least the %v left of the stall", s.due, s.latency(), want)
		}
		if s.done-s.sent < (stallEnd-s.due)/2 {
			fromSendMissed++
		}
	}
	if due < 50 {
		t.Fatalf("only %d requests were due during the stall", due)
	}
	if fromSendMissed < due/2 {
		t.Errorf("timing from send missed the stall on only %d of %d requests; the test stalls nothing", fromSendMissed, due)
	}
}

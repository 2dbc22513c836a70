package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// callRecord is what the generator remembers about one scheduled request.
// Each record is written by exactly one worker and read after the phase.
type callRecord struct {
	op     opClass
	scoped bool // sent on behalf of a scientist (project scope applies)
	sent   bool
	ok     bool
	start  time.Time // actual send
	end    time.Time // response fully read and validated
}

// phaseResult is one open-loop phase: the schedule's due offsets, what
// happened to each call, and the generator's own health.
type phaseResult struct {
	start   time.Time
	dues    []time.Duration
	calls   []callRecord
	elapsed time.Duration // first due to last completion
	// lateMax is how far behind its schedule the dispatcher itself ran —
	// the instrument's error, not the server's.
	lateMax    time.Duration
	backlogMid int
	backlogEnd int
	skipped    int // due but never sent before the drain deadline
}

// latencyMS is call i's latency measured from its due time, so a stall
// is charged to every request that was due while it lasted.
func (p *phaseResult) latencyMS(i int) float64 {
	return float64(p.calls[i].end.Sub(p.start.Add(p.dues[i]))) / float64(time.Millisecond)
}

// uniformDues spaces n calls evenly at rate per second.
func uniformDues(n int, rate float64) []time.Duration {
	d := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range d {
		d[i] = time.Duration(float64(i) * step)
	}
	return d
}

// openLoop runs one open-loop phase. A dispatcher releases call i at its
// due time into a FIFO regardless of whether earlier calls completed;
// workers (one connection each) take calls in order and run do. Calls
// still unsent drain after the last due time are skipped and counted.
func openLoop(dues []time.Duration, workers int, drain time.Duration, do func(worker, i int, rec *callRecord)) *phaseResult {
	p := &phaseResult{dues: dues, calls: make([]callRecord, len(dues))}
	// Sized to the number of sends: the dispatcher never blocks on a
	// slow server, which is what makes the loop open.
	queue := make(chan int, len(dues))
	var started atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now().Add(5 * time.Millisecond)
	var deadline time.Time
	if len(dues) > 0 {
		deadline = p.start.Add(dues[len(dues)-1] + drain)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if time.Now().After(deadline) {
					continue
				}
				started.Add(1)
				rec := &p.calls[i]
				rec.sent = true
				do(w, i, rec)
			}
		}(w)
	}
	for i, due := range dues {
		at := p.start.Add(due)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(at); late > p.lateMax {
			p.lateMax = late
		}
		queue <- i
		switch i {
		case len(dues) / 2:
			p.backlogMid = i + 1 - int(started.Load())
		case len(dues) - 1:
			p.backlogEnd = i + 1 - int(started.Load())
		}
	}
	close(queue)
	wg.Wait()
	last := p.start
	for i := range p.calls {
		if !p.calls[i].sent {
			p.skipped++
			continue
		}
		if p.calls[i].end.After(last) {
			last = p.calls[i].end
		}
	}
	p.elapsed = last.Sub(p.start)
	return p
}

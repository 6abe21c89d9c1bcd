package main

import (
	"runtime"
	"sync"
	"time"

	"mumak/internal/harness"
	"mumak/internal/pmem"
	"mumak/internal/workload"
)

// timedApp is a pass-through harness.Application that timestamps the
// calls the pipeline makes into the target. It adds one constant frame
// under every captured stack, so failure-point tree shape and every
// count are unchanged.
//
// Untraced, it records Setup and Run only (a handful of calls per
// campaign); traced, it records every Recover too, and with allocs set
// it also takes a runtime.MemStats delta around each Recover.
type timedApp struct {
	harness.Application
	traced bool
	allocs bool

	mu    sync.Mutex
	calls []call
}

// call is one recorded call into the target.
type call struct {
	op         string
	start, end time.Time
	alloc      uint64
}

func (a *timedApp) add(c call) {
	a.mu.Lock()
	a.calls = append(a.calls, c)
	a.mu.Unlock()
}

// Setup implements harness.Application.
func (a *timedApp) Setup(e *pmem.Engine) error {
	t0 := time.Now()
	err := a.Application.Setup(e)
	a.add(call{op: "setup", start: t0, end: time.Now()})
	return err
}

// Run implements harness.Application.
func (a *timedApp) Run(e *pmem.Engine, w workload.Workload) error {
	t0 := time.Now()
	err := a.Application.Run(e, w)
	a.add(call{op: "run", start: t0, end: time.Now()})
	return err
}

// Recover implements harness.Application.
func (a *timedApp) Recover(e *pmem.Engine) error {
	if !a.traced {
		return a.Application.Recover(e)
	}
	var m0 runtime.MemStats
	if a.allocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	err := a.Application.Recover(e)
	c := call{op: "recover", start: t0, end: time.Now()}
	if a.allocs {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	a.add(c)
	return err
}

// executions pairs each Setup with the Run that follows it: one entry
// per execution of the workload (the instrumented run first, then the
// debug-info re-execution, if any). An execution whose Run never
// returned ends at its Setup.
func (a *timedApp) executions() [][2]time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [][2]time.Time
	for _, c := range a.calls {
		switch c.op {
		case "setup":
			out = append(out, [2]time.Time{c.start, c.end})
		case "run":
			if len(out) > 0 {
				out[len(out)-1][1] = c.end
			}
		}
	}
	return out
}

// recovers returns the recorded Recover calls.
func (a *timedApp) recovers() []call {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []call
	for _, c := range a.calls {
		if c.op == "recover" {
			out = append(out, c)
		}
	}
	return out
}

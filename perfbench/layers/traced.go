package main

import (
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/trace"

	"lattecc/perfbench/benchkit"
)

// hot accumulates one hot call (timed per call) into an aggregate span.
type hot struct {
	calls uint64
	busy  time.Duration
}

func (h *hot) add(t0 time.Time) {
	h.busy += time.Since(t0)
	h.calls++
}

// probes are the hot calls the traced simulation times.
type probes struct {
	next, lineInto, recordAccess hot
}

// tracedWorkload times every Program.Next and DataSource.LineInto of
// the wrapped workload. Name, Category and the data are unchanged, so
// the simulation — and its StateHash — is too.
type tracedWorkload struct {
	trace.Workload
	p *probes
}

func (w tracedWorkload) Kernels() []trace.Kernel {
	ks := w.Workload.Kernels()
	for i := range ks {
		inner := ks[i].Program
		ks[i].Program = func(block, warp int) trace.Program {
			return tracedProgram{inner(block, warp), &w.p.next}
		}
	}
	return ks
}

func (w tracedWorkload) Data() trace.DataSource {
	d := w.Workload.Data()
	lf, ok := d.(trace.LineFiller)
	if !ok {
		return d // every built-in workload's data is a LineFiller
	}
	return tracedData{d, lf, &w.p.lineInto}
}

type tracedProgram struct {
	trace.Program
	h *hot
}

func (p tracedProgram) Next() (trace.Inst, bool) {
	t0 := time.Now()
	inst, ok := p.Program.Next()
	p.h.add(t0)
	return inst, ok
}

// tracedData keeps the simulator's LineFiller probe hitting, and times
// LineInto.
type tracedData struct {
	trace.DataSource
	lf trace.LineFiller
	h  *hot
}

func (d tracedData) LineInto(dst []byte, lineAddr uint64) {
	t0 := time.Now()
	d.lf.LineInto(dst, lineAddr)
	d.h.add(t0)
}

// epLogger is the optional controller surface sim.Run reads after a run;
// a wrapper must offer it exactly when the wrapped controller does.
type epLogger interface {
	EPsInMode() [modes.NumModes]uint64
	EPLog() []modes.Mode
	EPKernels() []int32
	Switches() uint64
}

// tracedCtrl times RecordAccess and forwards the optional KernelStart
// and EP-log methods. For a controller without them it returns what
// sim.Run would have left unset, so results are unchanged either way.
type tracedCtrl struct {
	modes.Controller
	h *hot
}

func (c tracedCtrl) RecordAccess(set int, hit bool, m modes.Mode, extraLat, now uint64) modes.Directive {
	t0 := time.Now()
	d := c.Controller.RecordAccess(set, hit, m, extraLat, now)
	c.h.add(t0)
	return d
}

func (c tracedCtrl) KernelStart(idx int) {
	if ks, ok := c.Controller.(interface{ KernelStart(int) }); ok {
		ks.KernelStart(idx)
	}
}

func (c tracedCtrl) EPsInMode() (out [modes.NumModes]uint64) {
	if l, ok := c.Controller.(epLogger); ok {
		out = l.EPsInMode()
	}
	return out
}

func (c tracedCtrl) EPLog() []modes.Mode {
	if l, ok := c.Controller.(epLogger); ok {
		return l.EPLog()
	}
	return nil
}

func (c tracedCtrl) EPKernels() []int32 {
	if l, ok := c.Controller.(epLogger); ok {
		return l.EPKernels()
	}
	return nil
}

func (c tracedCtrl) Switches() uint64 {
	if l, ok := c.Controller.(epLogger); ok {
		return l.Switches()
	}
	return 0
}

// timedStore wraps the result store under the harness Suite and records
// spans around Load and Save. Because Suite.Run calls Load just before
// simulating and Save just after, the interval between a key's Load miss
// and its Save is that run's simulation: it becomes a "harness.sim" span,
// so the rest of the Suite.Run span is the harness's own time.
type timedStore struct {
	inner harness.Store
	spans *benchkit.Spans
	run   int // current run id
	root  int // span of the Suite.Run call in progress
	open  map[harness.StoreKey]int
}

func (s *timedStore) Load(k harness.StoreKey) (sim.Result, bool) {
	i := s.spans.Begin("resultstore.load", s.run, s.root)
	res, ok := s.inner.Load(k)
	s.spans.End(i)
	if !ok {
		s.open[k] = s.spans.Begin("harness.sim", s.run, s.root)
	}
	return res, ok
}

func (s *timedStore) Save(k harness.StoreKey, res sim.Result) {
	if i, ok := s.open[k]; ok {
		s.spans.End(i)
		delete(s.open, k)
	}
	i := s.spans.Begin("resultstore.save", s.run, s.root)
	s.inner.Save(k, res)
	s.spans.End(i)
}

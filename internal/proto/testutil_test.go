package proto

import (
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/sim"
)

// Shared test harness for every suite in this package (unit, edge,
// invariant, allocation-pinning, fuzz). One constructor with functional
// options replaces the hand-rolled engine+classifier+NewSystem triples
// that had drifted apart across files.

// testSystem bundles a System with its engine and classifier.
type testSystem struct {
	e  *sim.Engine
	s  *System
	cl *classify.Classifier
}

// testOpt adjusts the Config a test system is built with.
type testOpt func(*Config)

// withCacheBytes shrinks (or grows) the per-node cache, e.g. to force
// conflict evictions.
func withCacheBytes(n int) testOpt { return func(c *Config) { c.CacheBytes = n } }

// withCUThreshold sets the competitive-update counter threshold.
func withCUThreshold(n uint8) testOpt { return func(c *Config) { c.CUThreshold = n } }

// withoutRetention disables PU's private-block retention optimization.
func withoutRetention() testOpt { return func(c *Config) { c.DisableRetention = true } }

// newTestSystem is the *testing.T-free constructor, usable from fuzz
// function bodies and benchmarks.
func newTestSystem(protocol Protocol, procs int, opts ...testOpt) *testSystem {
	e := sim.NewEngine()
	cl := classify.New(procs)
	cfg := DefaultConfig(protocol)
	for _, opt := range opts {
		opt(&cfg)
	}
	s := NewSystem(e, procs, cfg, cl, func(block uint32) int { return int(block) % procs })
	return &testSystem{e: e, s: s, cl: cl}
}

func newTest(t *testing.T, protocol Protocol, procs int, opts ...testOpt) *testSystem {
	t.Helper()
	return newTestSystem(protocol, procs, opts...)
}

// script sequences asynchronous protocol operations: each step receives a
// done callback that triggers the next step.
type script struct {
	ts    *testSystem
	steps []func(done func())
}

func (ts *testSystem) script() *script { return &script{ts: ts} }

func (sc *script) add(f func(done func())) *script {
	sc.steps = append(sc.steps, f)
	return sc
}

// read appends a load and stores the value into *out.
func (sc *script) read(p int, a cache.Addr, out *uint32) *script {
	return sc.add(func(done func()) {
		sc.ts.s.Read(p, a, func(v uint32) {
			if out != nil {
				*out = v
			}
			done()
		})
	})
}

// write appends a store, then waits for both retirement and full drain.
func (sc *script) write(p int, a cache.Addr, v uint32) *script {
	return sc.add(func(done func()) {
		sc.ts.s.Write(p, a, v, func() {
			sc.ts.s.WhenDrained(p, done)
		})
	})
}

// atomic appends an atomic op, storing old into *out.
func (sc *script) atomic(p int, a cache.Addr, k AtomicKind, o1, o2 uint32, out *uint32) *script {
	return sc.add(func(done func()) {
		sc.ts.s.Atomic(p, a, k, o1, o2, func(old uint32) {
			if out != nil {
				*out = old
			}
			sc.ts.s.WhenDrained(p, done)
		})
	})
}

func (sc *script) flush(p int, a cache.Addr) *script {
	return sc.add(func(done func()) { sc.ts.s.FlushBlock(p, a); done() })
}

// run executes the steps in order and drains the engine.
func (sc *script) run() {
	var next func(i int)
	next = func(i int) {
		if i >= len(sc.steps) {
			return
		}
		sc.steps[i](func() { next(i + 1) })
	}
	sc.ts.e.Schedule(0, func() { next(0) })
	sc.ts.e.Run()
}

func allProtocols() []Protocol { return []Protocol{WI, PU, CU} }

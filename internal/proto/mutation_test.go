package proto

import (
	"strings"
	"testing"

	"coherencesim/internal/cache"
)

// Mutation-hardening for CheckCoherence: each case corrupts one aspect
// of a live, quiescent, known-clean system and asserts the checker
// reports it with the expected diagnostic. A silently weakened checker
// (e.g. a refactor dropping one invariant) fails here, not in the field.
func TestCheckerMutationHardening(t *testing.T) {
	cases := []struct {
		name string
		// build prepares a clean quiescent system.
		build func(t *testing.T) *testSystem
		// corrupt plants exactly one violation.
		corrupt func(ts *testSystem)
		// want is a substring of at least one reported error.
		want string
	}{
		{
			name:  "double-exclusive",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 1).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(1).Install(1, make([]uint32, cache.WordsPerBlock), cache.Exclusive)
			},
			want: "exclusive copies",
		},
		{
			name:  "phantom-sharer",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Invalidate(1) // copy gone, directory still lists node 2
			},
			want: "as sharer without a copy",
		},
		{
			name:  "unrecorded-holder",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().read(0, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				// Node 3 conjures a copy the directory never granted.
				ts.s.Cache(3).Install(1, append([]uint32(nil), ts.s.Memory(1).Block(1)...), cache.Shared)
			},
			want: "not a recorded sharer",
		},
		{
			name:  "stale-word",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).Data[3] = 0xbad // clean copy diverges from memory
			},
			want: "memory has",
		},
		{
			name:  "dropped-owner",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				// Owned directory entry, but the owner holds nothing and no
				// write-back is pending: the dirty data evaporated.
				ts.s.Cache(0).Invalidate(1)
			},
			want: "holds no copy",
		},
		{
			name:  "exclusive-without-ownership",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).State = cache.Exclusive // directory still says shared
			},
			want: "but directory",
		},
		{
			name:  "busy-at-quiescence",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 1).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.dirEntryAt(1).busy = true
			},
			want: "directory busy",
		},
		{
			name:  "queued-at-quiescence",
			build: func(t *testing.T) *testSystem { ts := newTest(t, CU, 4); ts.script().read(1, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				d := ts.s.dirEntryAt(1)
				d.waitq = append(d.waitq, &request{})
			},
			want: "queued=1",
		},
		{
			name:  "cached-without-directory",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().read(0, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				// A block no directory entry was ever created for.
				ts.s.Cache(2).Install(40, make([]uint32, cache.WordsPerBlock), cache.Shared)
			},
			want: "no directory entry",
		},
		{
			name: "cached-without-directory-after-reset",
			build: func(t *testing.T) *testSystem {
				ts := newTest(t, WI, 4)
				ts.script().read(0, 40*cache.BlockBytes, nil).run()
				ts.s.Reset(ts.s.cfg) // a reset system knows block 40 no more than a fresh one
				return ts
			},
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Install(40, make([]uint32, cache.WordsPerBlock), cache.Shared)
			},
			want: "no directory entry",
		},
		{
			name:  "uncached-with-sharer",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.dirEntryAt(1).State = DirUncached // node 2 still recorded and caching
			},
			want: "uncached directory entry with sharers",
		},
		{
			name:  "shared-without-sharers",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Invalidate(1)
				ts.s.dirEntryAt(1).Sharers = 0 // shared, but nobody
			},
			want: "shared directory entry with no sharers",
		},
		{
			name:  "owner-holds-shared",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(0).Lookup(1).State = cache.Shared // directory still says owned(0)
			},
			want: "holds a shared copy",
		},
		{
			name:  "pending-writeback-at-quiescence",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.procs[3].wbs = append(ts.s.procs[3].wbs, &wbMsg{request: request{block: 1}})
			},
			want: "pending write-back",
		},
		{
			name:  "dangling-cancelled-writeback",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.procs[2].wbs = append(ts.s.procs[2].wbs, &wbMsg{request: request{block: 1}, cancelled: true})
			},
			want: "dangling write-back cancellation",
		},
		{
			name:  "dirty-shared",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).Dirty = true
			},
			want: "dirty non-exclusive copy at node 2",
		},
		{
			name:  "cu-counter-at-threshold",
			build: func(t *testing.T) *testSystem { ts := newTest(t, CU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).Counter = ts.s.cfg.CUThreshold
			},
			want: "at or above the CU threshold",
		},
		{
			name:  "counter-under-pu",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).Counter = 1
			},
			want: "update counter 1 under PU",
		},
		{
			name:  "exclusive-under-cu",
			build: func(t *testing.T) *testSystem { ts := newTest(t, CU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.Cache(2).Lookup(1).State = cache.Exclusive
			},
			want: "under CU, which never retains",
		},
		{
			name:  "owned-with-sharers",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.dirEntryAt(1).Sharers = 1 << 2
			},
			want: "owned directory entry with sharer bits",
		},
		{
			name:  "owner-names-no-node",
			build: func(t *testing.T) *testSystem { ts := newTest(t, WI, 4); ts.script().write(0, 64, 9).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.dirEntryAt(1).Owner = 4
			},
			want: "directory owner 4 names no node",
		},
		{
			name:  "sharer-beyond-nodes",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				ts.s.dirEntryAt(1).Sharers |= 1 << 4
			},
			want: "name nodes beyond 3",
		},
		{
			name:  "idle-entry-queues",
			build: func(t *testing.T) *testSystem { ts := newTest(t, PU, 4); ts.script().read(2, 64, nil).run(); return ts },
			corrupt: func(ts *testSystem) {
				d := ts.s.dirEntryAt(1)
				d.waitq = append(d.waitq, &request{})
			},
			want: "idle directory entry queues 1",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ts := tc.build(t)
			if errs := ts.s.CheckCoherence(); len(errs) > 0 {
				t.Fatalf("system dirty before mutation: %v", errs[0])
			}
			tc.corrupt(ts)
			errs := ts.s.CheckCoherence()
			if len(errs) == 0 {
				t.Fatalf("checker missed the %s corruption entirely", tc.name)
			}
			found := false
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no reported error mentions %q; got %v", tc.want, errs)
			}
		})
	}
}

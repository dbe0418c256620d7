package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json holds what a correct run must reproduce exactly: per
// unit of work the SHA-256 of the rendered tables (or served documents)
// and the simulated cycle and event totals, plus the model checker's
// state count. A change that only makes the simulator faster leaves all
// of it untouched; a change that is meant to move simulated results
// regenerates the file from the "observed" block of a results file and
// says so.
//
//go:embed expected.json
var expectedJSON []byte

type expectedUnit struct {
	Digest    string `json:"digest"`
	SimCycles uint64 `json:"sim_cycles"`
	SimEvents uint64 `json:"sim_events,omitempty"`
}

var expected struct {
	Units    map[string]expectedUnit `json:"units"`
	McStates int                     `json:"mc_states"`
}

func init() {
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		panic(fmt.Sprintf("bench: expected.json: %v", err))
	}
}

// check compares a unit against its expected entry, counting each
// mismatch as a failed operation. The event total is compared only when
// the unit saw point results (see unitResult.simEvents).
func check(u *unitResult) {
	want, ok := expected.Units[u.key]
	if !ok {
		u.fail("%s: no entry in expected.json", u.key)
		return
	}
	if u.digest != want.Digest {
		u.fail("%s: output digest %s, want %s", u.key, u.digest, want.Digest)
	}
	if u.simCycles != want.SimCycles {
		u.fail("%s: %d simulated cycles, want %d", u.key, u.simCycles, want.SimCycles)
	}
	if u.simEvents != 0 && want.SimEvents != 0 && u.simEvents != want.SimEvents {
		u.fail("%s: %d simulated events, want %d", u.key, u.simEvents, want.SimEvents)
	}
}

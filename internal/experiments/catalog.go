package experiments

import (
	"fmt"

	"coherencesim/internal/proto"
)

// CatalogEntry describes one runnable experiment: the name used by the
// CLI's -experiment flag and the service API, a one-line description,
// and the renderers that actually run it. Tables is always present; CSV
// is nil for experiments without a plotting-friendly CSV form.
// Uncollected marks an experiment that feeds neither Options.Metrics nor
// Options.Breakdown: its reports would hold no runs.
type CatalogEntry struct {
	Name        string
	Description string
	Tables      func(Options) []fmt.Stringer
	CSV         func(Options) string
	Uncollected bool
}

// HasCSV reports whether the experiment has a CSV form.
func (e CatalogEntry) HasCSV() bool { return e.CSV != nil }

// one wraps a single-table experiment as a Tables renderer.
func one(run func(Options) fmt.Stringer) func(Options) []fmt.Stringer {
	return func(o Options) []fmt.Stringer { return []fmt.Stringer{run(o)} }
}

// Catalog returns every experiment the package can run, in the order
// the paper (and the CLI's -experiment all) presents them. The CLI and
// the serving API both render from this one list, so the two can never
// drift.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{
			Name:        "fig8",
			Description: "lock latency sweep",
			Tables:      one(func(o Options) fmt.Stringer { return Figure8(o).Table() }),
			CSV:         func(o Options) string { return Figure8(o).CSV() },
		},
		{
			Name:        "fig9",
			Description: "lock miss traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure9(o).Table() }),
			CSV:         func(o Options) string { return Figure9(o).CSV() },
		},
		{
			Name:        "fig10",
			Description: "lock update traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure10(o).Table() }),
			CSV:         func(o Options) string { return Figure10(o).CSV() },
		},
		{
			Name:        "fig11",
			Description: "barrier latency sweep",
			Tables:      one(func(o Options) fmt.Stringer { return Figure11(o).Table() }),
			CSV:         func(o Options) string { return Figure11(o).CSV() },
		},
		{
			Name:        "fig12",
			Description: "barrier miss traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure12(o).Table() }),
			CSV:         func(o Options) string { return Figure12(o).CSV() },
		},
		{
			Name:        "fig13",
			Description: "barrier update traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure13(o).Table() }),
			CSV:         func(o Options) string { return Figure13(o).CSV() },
		},
		{
			Name:        "fig14",
			Description: "reduction latency sweep",
			Tables:      one(func(o Options) fmt.Stringer { return Figure14(o).Table() }),
			CSV:         func(o Options) string { return Figure14(o).CSV() },
		},
		{
			Name:        "fig15",
			Description: "reduction miss traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure15(o).Table() }),
			CSV:         func(o Options) string { return Figure15(o).CSV() },
		},
		{
			Name:        "fig16",
			Description: "reduction update traffic",
			Tables:      one(func(o Options) fmt.Stringer { return Figure16(o).Table() }),
			CSV:         func(o Options) string { return Figure16(o).CSV() },
		},
		{
			Name:        "lockvariants",
			Description: "Section 4.1 lock variants",
			Tables: func(o Options) []fmt.Stringer {
				return []fmt.Stringer{
					LockVariantRandomPause(o).Table(),
					LockVariantWorkRatio(o).Table(),
				}
			},
		},
		{
			Name:        "redvariants",
			Description: "Section 4.3 reduction variant",
			Tables:      one(func(o Options) fmt.Stringer { return ReductionVariantImbalanced(o).Table() }),
		},
		{
			Name:        "extlocks",
			Description: "extended lock sweep incl. TAS/TTAS",
			Tables:      one(func(o Options) fmt.Stringer { return ExtendedLockSweep(o).Table() }),
			CSV:         func(o Options) string { return ExtendedLockSweep(o).CSV() },
		},
		{
			Name:        "contention",
			Description: "per-node traffic concentration of the centralized lock",
			Uncollected: true,
			Tables: func(o Options) []fmt.Stringer {
				var out []fmt.Stringer
				for _, r := range AnalyzeLockContentions(o, []proto.Protocol{proto.PU, proto.WI}) {
					out = append(out, r.Table())
				}
				return out
			},
		},
		{
			Name:        "apps",
			Description: "application kernels: best construct per protocol",
			Uncollected: true,
			Tables: func(o Options) []fmt.Stringer {
				return []fmt.Stringer{
					CompareWorkQueue(o).Table(),
					CompareJacobi(o).Table(),
					CompareNBody(o).Table(),
				}
			},
		},
		{
			Name:        "ablations",
			Description: "DESIGN.md ablation studies",
			Uncollected: true,
			Tables: func(o Options) []fmt.Stringer {
				return []fmt.Stringer{
					AblateCUThreshold(o, []uint8{1, 2, 4, 8, 16}).Table(),
					AblatePURetention(o).Table(),
					AblateSpinModel(o, proto.PU).Table(),
					AblateSpinModel(o, proto.WI).Table(),
				}
			},
		},
	}
}

// Lookup returns the catalog entry with the given name.
func Lookup(name string) (CatalogEntry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return CatalogEntry{}, false
}

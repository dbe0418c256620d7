package experiments

// The frozen bench/ harness still imports the memo under its old name,
// from when only warm-forked sweeps were memoized, and counts its
// entries; nothing else does. The benchmark-definition change that
// retires the two-phase mode deletes this file.

type WarmForkCache = PointMemo

func NewWarmForkCache() *PointMemo { return NewPointMemo(PointStore(nil)) }

// Checkpoints reports how many distinct points the memo holds, finished
// or being simulated.
func (c *PointMemo) Checkpoints() int { return c.Stats().Entries }

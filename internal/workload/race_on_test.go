//go:build race

package workload

// raceDetector: under the race detector sync.Pool drops a quarter of
// its Puts on purpose, so every fmt.Sprintf may allocate a fresh
// printer and absolute allocation counts of code that formats names
// (32 queue nodes per MCS lock) jitter upward by a few dozen.
const raceDetector = true

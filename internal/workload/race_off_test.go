//go:build !race

package workload

const raceDetector = false

//go:build race

package tsdb

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true

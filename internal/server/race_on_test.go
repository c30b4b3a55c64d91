//go:build race

package server

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates and would invalidate exact allocs/op
// pins.
const raceEnabled = true

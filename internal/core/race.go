//go:build race

package core

// raceEnabled reports a race-detector build, where the device path poisons
// the bytes of every record view it takes back (see poisonReleased).
const raceEnabled = true

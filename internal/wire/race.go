//go:build race

package wire

// raceEnabled reports a race-detector build, where released frame bodies are
// poisoned (see poisonReleased).
const raceEnabled = true

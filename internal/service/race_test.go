//go:build race

package service

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts are not stable.
const raceEnabled = true

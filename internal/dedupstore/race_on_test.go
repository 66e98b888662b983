//go:build race

package dedupstore

const raceEnabled = true

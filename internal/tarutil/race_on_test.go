//go:build race

package tarutil

const raceEnabled = true

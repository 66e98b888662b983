//go:build race

package mirror

const raceEnabled = true

//go:build !race

package tarutil

const raceEnabled = false

//go:build race

package repro

// raceEnabled skips the run's byte ceiling under the race detector, which
// drops a random share of sync.Pool puts: the run then reallocates the
// ~5 KB PRNGs it otherwise recycles, at random.
const raceEnabled = true

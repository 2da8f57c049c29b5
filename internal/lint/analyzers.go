package lint

// All returns every analyzer of the determinism suite, in report
// order: the five rules encoding the fleet's bit-exactness invariants.
// Generic concurrency passes (copylocks, atomic) are `go vet`'s job.
// (The stock nilness pass needs golang.org/x/tools/go/ssa, which this
// offline build cannot vendor; it joins the suite when the dependency
// can land.)
func All() []*Analyzer {
	return []*Analyzer{
		Mapiter,
		Wallclock,
		Globalrand,
		Floatorder,
		Errdrop,
	}
}

// ByName returns the named analyzers, or ok=false naming the first
// unknown one.
func ByName(names []string) ([]*Analyzer, string, bool) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, n, false
		}
		out = append(out, a)
	}
	return out, "", true
}

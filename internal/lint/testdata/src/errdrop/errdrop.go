// Fixture for the errdrop analyzer: discarded errors from the
// fleet's round-execution and barrier-merge method names are findings
// in any file (the analyzer is unscoped); handling the error, or
// calling a same-named method without an error result, passes.
package errdrop

type fleet struct{}

func (f *fleet) RunRound() error       { return nil }
func (f *fleet) RunRounds(n int) error { return nil }
func (f *fleet) RunTests(n int) error  { return nil }

type set struct{}

func (s *set) MergeWords(words []uint64) (int, error) { return 0, nil }

// core mimics the per-shard fuzzer: RunTests without an error result
// is not a target.
type core struct{}

func (c *core) RunTests(n int) {}

func drops(f *fleet, s *set) {
	f.RunRound()                  // want "RunRound returns a fleet-poisoning error that is discarded"
	_ = f.RunRounds(3)            // want "RunRounds error assigned to _"
	added, _ := s.MergeWords(nil) // want "MergeWords error assigned to _"
	_ = added
}

func concurrencyDrops(f *fleet) {
	go f.RunRound()    // want "RunRound error is unobservable from a go statement"
	defer f.RunRound() // want "RunRound error is discarded by defer"
}

func handles(f *fleet, s *set) error {
	if err := f.RunRound(); err != nil {
		return err
	}
	if _, err := s.MergeWords(nil); err != nil {
		return err
	}
	return f.RunTests(5)
}

func notATarget(c *core) {
	c.RunTests(3) // no error result: not a barrier-poisoning call
}

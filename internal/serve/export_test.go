package serve

// ConservationErr is conservationErr on the live epoch, for the tests of
// package serve_test.
func (s *State) ConservationErr() error { return conservationErr(s, s.pin()) }

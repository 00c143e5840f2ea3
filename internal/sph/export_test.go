package sph

// PreCheck exposes FindNeighbors' decision before the pass to the external
// tests, which cannot otherwise tell a drift rebuild the pre-check called
// from one the refresh fell back to.
func (s *State) PreCheck() string {
	kind, _ := s.rebuildCause(s.P.MaxH())
	return kind
}

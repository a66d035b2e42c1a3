package fault

// Windows returns the resolved windows in time order, for the external
// tests of the schedule.
func (b *Brownouts) Windows() []Window { return b.windows }

package server

// JobCount reports how many jobs the core's table holds (tests in
// package server_test).
func (c *Core) JobCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

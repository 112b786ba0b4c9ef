package rescache

import "context"

// getOrCompute is GetOrComputeCtx for callers that never cancel.
func getOrCompute(c *Cache, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	var fn func(context.Context) ([]byte, error)
	if compute != nil {
		fn = func(context.Context) ([]byte, error) { return compute() }
	}
	return c.GetOrComputeCtx(context.Background(), key, fn)
}

// get returns the cached blob for key, consulting memory then disk,
// and never computes. A disk hit is promoted into memory.
func get(c *Cache, key string) ([]byte, bool) {
	c.mu.Lock()
	if blob, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		return blob, true
	}
	c.mu.Unlock()

	blob, ok := c.diskGet(context.Background(), key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.memAddLocked(key, blob)
	c.mu.Unlock()
	return blob, true
}

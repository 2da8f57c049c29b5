// Package enginetest is test support for engines run outside a fleet.
package enginetest

import (
	"testing"

	"chatfuzz/internal/engine"
)

// Pool returns a pool sized for one committer, closed when t ends.
func Pool(t testing.TB) *engine.FleetPool {
	p := engine.NewFleetPool(engine.SpareWorkers(1), nil)
	t.Cleanup(p.Close)
	return p
}

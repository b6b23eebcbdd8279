package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bespokv/internal/datalet"
	"bespokv/internal/histcheck"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// TestAASCLinearizableUnlockInFlight hammers ONE key under AA+SC from
// clients pinned to different controlets. A controlet acks its client once
// the release of the key's lease is written to the lock manager, not once
// it has landed, so the next operation — served by another controlet, over
// another lock-manager connection — regularly asks for the lease while the
// previous holder's Unlock is still in flight. It must queue behind that
// release, never overtake the write it covers: the history stays
// linearizable.
func TestAASCLinearizableUnlockInFlight(t *testing.T) {
	c := startCluster(t, Options{
		Mode:            topology.Mode{Topology: topology.AA, Consistency: topology.Strong},
		Shards:          1,
		Replicas:        3,
		DisableFailover: true,
	})
	const key = "hot"
	opsPerClient := 1500
	if testing.Short() {
		opsPerClient = 300
	}
	rec := histcheck.NewRecorder()
	var vals atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, len(c.Shards[0]))
	for w, pair := range c.Shards[0] {
		raw, err := datalet.Dial(c.Net, pair.Controlet.DataAddr(), c.Codec)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		wg.Add(1)
		go func(w int, raw *datalet.Client) {
			defer wg.Done()
			var resp wire.Response
			for i := 0; i < opsPerClient; i++ {
				// Controlets 0 and 1 alternate writes and reads, 2 only reads.
				if w < 2 && i%2 == 0 {
					v := fmt.Sprint(vals.Add(1))
					ref := rec.BeginWrite(w, key, v)
					err := raw.Do(&wire.Request{Op: wire.OpPut, Key: []byte(key), Value: []byte(v)}, &resp)
					if err == nil && resp.Status != wire.StatusOK {
						err = fmt.Errorf("put via controlet %d: status %d %s", w, resp.Status, resp.Err)
					}
					rec.EndWrite(ref, err)
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				ref := rec.BeginRead(w, key)
				err := raw.Do(&wire.Request{Op: wire.OpGet, Key: []byte(key)}, &resp)
				found := resp.Status == wire.StatusOK
				if err == nil && !found && resp.Status != wire.StatusNotFound {
					err = fmt.Errorf("get via controlet %d: status %d %s", w, resp.Status, resp.Err)
				}
				rec.EndRead(ref, string(resp.Value), found, err)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w, raw)
	}
	wg.Wait()
	close(errs)
	// No faults are injected: every operation must have succeeded, or the
	// history below is thinner than it claims.
	for err := range errs {
		t.Error(err)
	}
	rep := histcheck.Check(rec.Ops(), histcheck.Options{MaxStates: 5_000_000})
	t.Logf("history: %d ops on one key; %s", rec.Len(), rep)
	if !rep.Ok() {
		t.Fatalf("AA+SC history with releases in flight is not linearizable: %s", rep)
	}
}

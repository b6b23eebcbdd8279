package controlet

import (
	"errors"
	"fmt"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/wire"
)

// RecoverReply reports what a recovery transferred; the coordinator logs
// it and the rejoin tests assert on it.
type RecoverReply struct {
	// Pairs is the number of records (live pairs plus tombstones) pulled
	// from the source.
	Pairs int `json:"pairs"`
	// Delta is true when every table was recovered incrementally from a
	// non-zero version rather than from the start of the table.
	Delta bool `json:"delta"`
}

// recoverFrom clones a surviving datalet's state into the local datalet —
// the standby-promotion path the coordinator drives after a node failure
// ("the new controlet then recovers the data from one of the datalets",
// §IV-A), and the rejoin path after a crash-restart. Tables are discovered
// via OpStats; versions ride along, so any replication that races with
// recovery resolves by LWW.
//
// A restarted node does not start empty: its engine recovered a durable
// prefix, and its recovered watermark (carried per table in the local
// datalet's OpStats) bounds what it can be missing. The source's export
// then starts at the watermark: only records newer than it, tombstones
// included. An empty node's watermark is 0, so it takes the whole table.
//
// Under AA+EC the log applier first takes its position from the source's
// controlet (logApplier.follow): the data below that cursor is what the
// backfill brings, the log delivers the rest.
func (s *Server) recoverFrom(args RecoverArgs) (RecoverReply, error) {
	if s.aaec != nil {
		if args.SourceControl == "" {
			return RecoverReply{}, errors.New("recover: AA+EC needs the source's control address for its log cursor")
		}
		// The source may itself be catching up right now (a shard under
		// load that just lost a replica); give it a few seconds.
		for attempt := 1; ; attempt++ {
			err := s.aaec.follow(args.SourceControl, 0)
			if err == nil {
				break
			}
			if attempt == 8 || !errors.Is(err, errPeerBehind) {
				return RecoverReply{}, fmt.Errorf("recover: %w", err)
			}
			select {
			case <-s.stopCh:
				return RecoverReply{}, errStopped
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
	return s.backfill(args, 0)
}

// backfill is recoverFrom's data leg: the source datalet's tables into the
// local one, as one export per table of every record above a version,
// tombstones applied as versioned deletes. since is where every table's
// export starts — a live AA+EC replica that fell below its log's floor
// passes the version it had applied up to — and 0 takes each table's local
// recovered watermark instead (0 for a node that started empty).
func (s *Server) backfill(args RecoverArgs, since uint64) (RecoverReply, error) {
	var reply RecoverReply
	codec := s.cfg.DataletCodec
	if args.Codec != "" {
		c, err := wire.LookupCodec(args.Codec)
		if err != nil {
			return reply, err
		}
		codec = c
	}
	src, err := datalet.Dial(s.cfg.Network, args.SourceDatalet, codec)
	if err != nil {
		return reply, fmt.Errorf("recover: dial source: %w", err)
	}
	defer src.Close()

	// Discover the source's tables.
	var stats wire.Response
	if err := src.Do(&wire.Request{Op: wire.OpStats}, &stats); err != nil {
		return reply, fmt.Errorf("recover: stats: %w", err)
	}
	if err := stats.ErrValue(); err != nil {
		return reply, fmt.Errorf("recover: stats: %w", err)
	}
	tables := make([]string, 0, len(stats.Pairs))
	for _, p := range stats.Pairs {
		tables = append(tables, string(p.Key))
	}
	if len(tables) == 0 {
		tables = []string{""}
	}

	local := s.local.Get()

	// The local datalet's per-table recovered watermarks: where each
	// table's export starts unless the caller named a version.
	watermarks := map[string]uint64{}
	var localStats wire.Response
	if err := local.Do(&wire.Request{Op: wire.OpStats}, &localStats); err == nil && localStats.ErrValue() == nil {
		for _, p := range localStats.Pairs {
			watermarks[string(p.Key)] = p.Version
		}
	}

	reply.Delta = true
	for _, table := range tables {
		if table != "" {
			var resp wire.Response
			if err := local.Do(&wire.Request{Op: wire.OpCreateTable, Table: table}, &resp); err != nil {
				return reply, fmt.Errorf("recover: create table %q: %w", table, err)
			}
		}
		apply := func(kv wire.KV, tombstone bool) error {
			s.observeVersion(kv.Version)
			var resp wire.Response
			req := wire.Request{
				Op:      wire.OpPut,
				Table:   table,
				Key:     kv.Key,
				Value:   kv.Value,
				Version: kv.Version,
			}
			if tombstone {
				req.Op = wire.OpDel
				req.Value = nil
			}
			if err := local.Do(&req, &resp); err != nil {
				return err
			}
			reply.Pairs++
			if resp.Status == wire.StatusErr {
				return resp.ErrValue()
			}
			return nil
		}

		from := since
		if from == 0 {
			from = watermarks[table]
		}
		if err := src.Export(table, from, apply); err != nil {
			return reply, fmt.Errorf("recover: export table %q since v%d: %w", table, from, err)
		}
		reply.Delta = reply.Delta && from > 0
		s.cfg.Logf("controlet %s: recovered %d records of table %q from %s since v%d",
			s.cfg.NodeID, reply.Pairs, table, args.SourceDatalet, from)
	}
	return reply, nil
}

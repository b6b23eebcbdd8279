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
	// Delta is true when every table was recovered incrementally from the
	// local watermark rather than by a full export.
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
// datalet's OpStats) bounds what it can be missing. When the watermark is
// non-zero the source is asked for an incremental delta (OpExportDelta) —
// only records newer than the watermark, tombstones included — and only
// if the source cannot serve a complete delta does recovery fall back to
// the full OpExport stream.
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
			_, err := s.aaec.follow(args.SourceControl, 0)
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
	return s.backfill(args, nil)
}

// logGap describes what a live AA+EC replica that fell below its log's
// floor is missing, in versions: every record it did not apply carries a
// version above since, and the backfill source has applied every record
// with a version up to upto (0: not known).
type logGap struct {
	since, upto uint64
}

// backfill is recoverFrom's data leg: the source datalet's tables into the
// local one. With a gap the local datalet is neither empty nor restarted
// but stale, and what it missed includes deletions: the delta is then taken
// from gap.since, tombstones and all, and where the source's engine cannot
// serve one, the full export is followed by a sweep of the local keys the
// source no longer has (prune).
func (s *Server) backfill(args RecoverArgs, gap *logGap) (RecoverReply, error) {
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

	// The local datalet's per-table recovered watermarks decide between
	// incremental and full recovery.
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

		usedDelta := false
		since := watermarks[table]
		if gap != nil {
			since = gap.since
		}
		if since > 0 {
			err := src.ExportSince(table, since, apply)
			switch {
			case err == nil:
				usedDelta = true
				s.cfg.Logf("controlet %s: rejoined table %q from %s with an incremental delta since v%d",
					s.cfg.NodeID, table, args.SourceDatalet, since)
			case errors.Is(err, datalet.ErrDeltaUnavailable):
				s.cfg.Logf("controlet %s: table %q: delta since v%d unavailable at %s, falling back to full export",
					s.cfg.NodeID, table, since, args.SourceDatalet)
			default:
				return reply, fmt.Errorf("recover: delta export table %q: %w", table, err)
			}
		}
		if !usedDelta {
			reply.Delta = false
			var exported map[string]struct{}
			if gap != nil && gap.upto > 0 {
				exported = map[string]struct{}{}
			}
			err := src.Export(table, func(kv wire.KV) error {
				if exported != nil {
					exported[string(kv.Key)] = struct{}{}
				}
				return apply(kv, false)
			})
			if err != nil {
				return reply, fmt.Errorf("recover: export table %q: %w", table, err)
			}
			if exported != nil {
				if err := s.prune(local, table, exported, gap.upto); err != nil {
					return reply, fmt.Errorf("recover: prune table %q: %w", table, err)
				}
			}
		}
		s.cfg.Logf("controlet %s: recovered %d records of table %q from %s (delta=%v)",
			s.cfg.NodeID, reply.Pairs, table, args.SourceDatalet, usedDelta)
	}
	return reply, nil
}

// prune deletes from the local table every key that a full export of the
// source did not list and whose version is at most upto. The source has
// applied every record up to that version, so such a key was deleted there,
// by a record this replica will never see; the export, which lists live
// pairs only, cannot say so. A key above upto is one the log still delivers
// news of. The tombstone takes version upto: below everything the log will
// deliver, at or above the deletion it stands in for. The caller holds the
// source's whole key set in memory meanwhile: the price of an engine that
// cannot list its tombstones.
func (s *Server) prune(local *datalet.Client, table string, exported map[string]struct{}, upto uint64) error {
	var stale [][]byte
	err := local.Export(table, func(kv wire.KV) error {
		if _, ok := exported[string(kv.Key)]; !ok && kv.Version <= upto {
			stale = append(stale, append([]byte(nil), kv.Key...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, key := range stale {
		var resp wire.Response
		if err := local.Do(&wire.Request{Op: wire.OpDel, Table: table, Key: key, Version: upto}, &resp); err != nil {
			return err
		}
		if resp.Status == wire.StatusErr {
			return resp.ErrValue()
		}
	}
	if len(stale) > 0 {
		s.cfg.Logf("controlet %s: table %q: deleted %d keys the backfill source no longer has", s.cfg.NodeID, table, len(stale))
	}
	return nil
}

// Package backup dumps and restores a bespokv cluster's full contents —
// the operational tooling a production store needs around the paper's
// framework. Dump streams every shard's tables from one read replica per
// shard (Export), writing a self-describing, CRC-checked file; Restore
// replays a dump through the client API into any cluster (the target's
// sharding may differ — keys re-route).
package backup

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"bespokv/internal/client"
	"bespokv/internal/coordinator"
	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

const (
	magic   = "BKVDUMP1"
	recPair = 1
	recEnd  = 2
)

// Stats summarizes a dump or restore.
type Stats struct {
	Tables int
	Pairs  int
	Bytes  int64
}

// Dump writes the cluster's contents to w. It consults the coordinator for
// the current map and exports each shard from its read tail's datalet.
func Dump(network transport.Network, coordinatorAddr string, w io.Writer) (Stats, error) {
	coord, err := coordinator.DialCoordinator(network, coordinatorAddr)
	if err != nil {
		return Stats{}, err
	}
	defer coord.Close()
	m, err := coord.GetMap()
	if err != nil {
		return Stats{}, err
	}
	return DumpMap(network, m, w)
}

// DumpMap dumps using an explicit cluster map (coordinator-less setups).
func DumpMap(network transport.Network, m *topology.Map, w io.Writer) (Stats, error) {
	var stats Stats
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return stats, err
	}
	count := func(n int) { stats.Bytes += int64(n) }
	count(len(magic))

	tablesSeen := map[string]bool{}
	for _, shard := range m.Shards {
		src := shard.ReadTail()
		codecName := src.DataletCodec
		if codecName == "" {
			codecName = "binary"
		}
		codec, err := wire.LookupCodec(codecName)
		if err != nil {
			return stats, err
		}
		cli, err := datalet.Dial(network, src.DataletAddr, codec)
		if err != nil {
			return stats, fmt.Errorf("backup: dial %s: %w", src.ID, err)
		}
		var resp wire.Response
		if err := cli.Do(&wire.Request{Op: wire.OpStats}, &resp); err != nil {
			cli.Close()
			return stats, err
		}
		var tables []string
		for _, p := range resp.Pairs {
			tables = append(tables, string(p.Key))
		}
		sort.Strings(tables)
		for _, table := range tables {
			if !tablesSeen[table] {
				tablesSeen[table] = true
				stats.Tables++
			}
			err := cli.Export(table, 0, func(kv wire.KV, tombstone bool) error {
				if tombstone {
					return nil // a backup holds live pairs only
				}
				n, err := writePair(bw, table, kv)
				if err != nil {
					return err
				}
				count(n)
				stats.Pairs++
				return nil
			})
			if err != nil {
				cli.Close()
				return stats, fmt.Errorf("backup: export shard %s table %q: %w", shard.ID, table, err)
			}
		}
		cli.Close()
	}
	if err := writeEnd(bw, stats.Pairs); err != nil {
		return stats, err
	}
	return stats, bw.Flush()
}

func writePair(w *bufio.Writer, table string, kv wire.KV) (int, error) {
	body := make([]byte, 0, 16+len(table)+len(kv.Key)+len(kv.Value))
	body = append(body, recPair)
	body = binary.AppendUvarint(body, uint64(len(table)))
	body = append(body, table...)
	body = binary.AppendUvarint(body, uint64(len(kv.Key)))
	body = append(body, kv.Key...)
	body = binary.AppendUvarint(body, uint64(len(kv.Value)))
	body = append(body, kv.Value...)
	body = binary.AppendUvarint(body, kv.Version)
	return writeFrame(w, body)
}

func writeEnd(w *bufio.Writer, pairs int) error {
	body := make([]byte, 0, 12)
	body = append(body, recEnd)
	body = binary.AppendUvarint(body, uint64(pairs))
	_, err := writeFrame(w, body)
	return err
}

func writeFrame(w *bufio.Writer, body []byte) (int, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return len(body) + 8, nil
}

// Pair is one restored record handed to the sink.
type Pair struct {
	Table   string
	Key     []byte
	Value   []byte
	Version uint64
}

// Read parses a dump, invoking fn per pair, and verifies the trailer.
func Read(r io.Reader, fn func(Pair) error) (Stats, error) {
	var stats Stats
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return stats, err
	}
	if string(head) != magic {
		return stats, errors.New("backup: not a bespokv dump")
	}
	tablesSeen := map[string]bool{}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return stats, fmt.Errorf("backup: truncated dump (missing trailer): %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return stats, err
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return stats, errors.New("backup: corrupt record (CRC mismatch)")
		}
		if len(body) == 0 {
			return stats, errors.New("backup: empty record")
		}
		switch body[0] {
		case recEnd:
			declared, _ := binary.Uvarint(body[1:])
			if int(declared) != stats.Pairs {
				return stats, fmt.Errorf("backup: trailer declares %d pairs, read %d", declared, stats.Pairs)
			}
			return stats, nil
		case recPair:
			p, err := decodePair(body[1:])
			if err != nil {
				return stats, err
			}
			if !tablesSeen[p.Table] {
				tablesSeen[p.Table] = true
				stats.Tables++
			}
			stats.Pairs++
			if err := fn(p); err != nil {
				return stats, err
			}
		default:
			return stats, fmt.Errorf("backup: unknown record type %d", body[0])
		}
	}
}

func decodePair(b []byte) (Pair, error) {
	var p Pair
	take := func() ([]byte, error) {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return nil, errors.New("backup: corrupt pair")
		}
		out := b[w : w+int(n)]
		b = b[w+int(n):]
		return out, nil
	}
	table, err := take()
	if err != nil {
		return p, err
	}
	p.Table = string(table)
	if p.Key, err = take(); err != nil {
		return p, err
	}
	p.Key = append([]byte(nil), p.Key...)
	if p.Value, err = take(); err != nil {
		return p, err
	}
	p.Value = append([]byte(nil), p.Value...)
	ver, w := binary.Uvarint(b)
	if w <= 0 {
		return p, errors.New("backup: corrupt version")
	}
	p.Version = ver
	return p, nil
}

// Restore replays a dump into the cluster behind cli. Tables are created
// as encountered; pairs are written with fresh versions (a restore is a
// new write from the target cluster's point of view).
func Restore(cli *client.Client, r io.Reader) (Stats, error) {
	created := map[string]bool{"": true}
	return Read(r, func(p Pair) error {
		if !created[p.Table] {
			if err := cli.CreateTable(p.Table); err != nil {
				return err
			}
			created[p.Table] = true
		}
		return cli.Put(p.Table, p.Key, p.Value)
	})
}

// Command bespokv-datalet runs one single-node KV store — the data plane
// unit a controlet wraps into a distributed service.
//
//	bespokv-datalet -addr 127.0.0.1:7101 -engine ht
//	bespokv-datalet -addr 127.0.0.1:7102 -engine lsm -dir /var/lib/bespokv/d2
//	bespokv-datalet -addr 127.0.0.1:7103 -engine applog -dir ./log -codec text
//
// With -local-addr the datalet also listens on a unix-domain socket: the
// link for the controlet on the same machine ("datalet": "unix:<path>" in
// its config), which then skips the loopback TCP stack. Everybody else —
// peer controlets, recovery, backup, direct-read clients — keeps using -addr.
//
//	bespokv-datalet -addr 10.0.0.5:7101 -local-addr /run/bespokv/d0.sock
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"bespokv/internal/datalet"
	"bespokv/internal/obs"
	"bespokv/internal/store"
	"bespokv/internal/store/applog"
	"bespokv/internal/store/btree"
	"bespokv/internal/store/ht"
	"bespokv/internal/store/lsm"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7101", "listen address")
		local   = flag.String("local-addr", "", "unix socket path to listen on as well, for the collocated controlet")
		network = flag.String("network", "tcp", "transport (tcp or inproc)")
		engine  = flag.String("engine", "ht", "storage engine: ht, btree, applog, lsm")
		dir     = flag.String("dir", "", "data directory for persistent engines")
		codec   = flag.String("codec", "binary", "wire protocol: binary or text")
		name    = flag.String("name", "datalet", "instance name for logs")
		obsAddr = flag.String("obs-addr", "", "HTTP observability address (/metrics, /statusz, /tracez, pprof); empty disables")
	)
	flag.Parse()
	net, err := transport.Lookup(*network)
	if err != nil {
		log.Fatal(err)
	}
	c, err := wire.LookupCodec(*codec)
	if err != nil {
		log.Fatal(err)
	}
	newEngine, err := engineFactory(*engine, *dir)
	if err != nil {
		log.Fatal(err)
	}
	s, err := datalet.Serve(datalet.Config{
		Name:      *name,
		Network:   net,
		Addr:      *addr,
		LocalAddr: *local,
		Codec:     c,
		NewEngine: newEngine,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bespokv-datalet %q listening on %s (%s), engine=%s codec=%s\n",
		*name, s.Addr(), *network, *engine, *codec)
	if *local != "" {
		fmt.Printf("local link on unix:%s\n", *local)
	}
	o, err := obs.Start(*obsAddr, s.Status)
	if err != nil {
		log.Fatal(err)
	}
	if o != nil {
		fmt.Printf("observability on http://%s/\n", o.Addr())
		defer o.Close()
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
	_ = s.Close()
}

func engineFactory(name, dir string) (func(string) (store.Engine, error), error) {
	switch name {
	case "ht":
		return func(string) (store.Engine, error) { return ht.New(), nil }, nil
	case "btree":
		return func(string) (store.Engine, error) { return btree.New(), nil }, nil
	case "applog":
		return func(table string) (store.Engine, error) {
			sub := ""
			if dir != "" {
				sub = filepath.Join(dir, "t_"+table)
			}
			return applog.New(applog.Options{Dir: sub})
		}, nil
	case "lsm":
		return func(table string) (store.Engine, error) {
			sub := ""
			if dir != "" {
				sub = filepath.Join(dir, "t_"+table)
			}
			return lsm.New(lsm.Options{Dir: sub})
		}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (ht, btree, applog, lsm)", name)
	}
}

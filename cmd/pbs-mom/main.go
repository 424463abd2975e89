// Command pbs-mom runs a compute-node daemon (the pbs_mom analog): it
// registers its node with the server and executes the jobs dispatched
// to it, including the mother-superior role of the dynamic allocation
// workflow (Figs. 3 and 4 of the paper).
//
//	pbs-mom -name node0 -cores 8 -server 127.0.0.1:15001
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/mom"
	"repro/internal/proto"
)

func main() {
	var (
		name      = flag.String("name", "node0", "node name")
		cores     = flag.Int("cores", 8, "cores on this node")
		server    = flag.String("server", "127.0.0.1:15001", "pbs-server address")
		listen    = flag.String("listen", "127.0.0.1:0", "TM/join listen address")
		heartbeat = flag.Duration("heartbeat", 0, "liveness beacon interval on the server link (0 disables; pair with the server's -heartbeat)")
		reconnect = flag.Bool("reconnect", true, "re-dial and re-register with backoff when the server link drops")
		handshake = flag.Duration("handshake-timeout", 10*time.Second, "deadline for a link's handshake: an inbound connection's first message, and an outbound dial to the server or a sister; non-zero by default so that a peer that accepts and never answers cannot hold the mom (0 disables)")
		protoFlag = flag.String("proto", "auto", "wire protocol: v1 (JSON), v2 (binary) or auto (negotiate v2, fall back to v1)")
		verbose   = flag.Bool("v", false, "verbose logging")
	)
	flag.Parse()

	mode, err := proto.ParseMode(*protoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbs-mom: %v\n", err)
		os.Exit(1)
	}
	if !cluster.ValidNodeCores(*cores) {
		fmt.Fprintf(os.Stderr, "pbs-mom: -cores %d outside [1, %d]; the server would refuse the node\n", *cores, cluster.MaxNodeCores)
		os.Exit(2)
	}
	m := mom.New(*name, *cores)
	m.Verbose = *verbose
	m.HeartbeatInterval = *heartbeat
	m.AutoReconnect = *reconnect
	m.HandshakeTimeout = *handshake
	m.Proto = mode
	if err := m.Start(*listen, *server); err != nil {
		fmt.Fprintf(os.Stderr, "pbs-mom: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("pbs-mom %s (%d cores) registered with %s, TM at %s\n", *name, *cores, *server, m.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	m.Close()
}

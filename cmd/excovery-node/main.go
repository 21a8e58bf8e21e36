// Command excovery-node is the node-host half of the distributed
// deployment (Fig. 12): it hosts the emulated platform — network and one
// NodeManager per platform node — and exposes the node actions over an
// XML-RPC control channel for an excovery-master process.
//
// Usage:
//
//	excovery-node -listen :8800 -builtin oneshot
//	excovery-node -listen :8800 -speed 0.01 description.xml
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/discovery"
	"excovery/internal/eventlog"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/xmlrpc"
)

func main() {
	var (
		listen    = flag.String("listen", ":8800", "XML-RPC listen address")
		builtin   = flag.String("builtin", "", "host an embedded description: "+strings.Join(desc.Builtins(), ", "))
		speed     = flag.Float64("speed", 0.01, "real-time pacing factor (wall seconds per virtual second)")
		seed      = flag.Int64("seed", 0, "override the experiment seed")
		registry  = flag.String("registry", "", "discovery registry XML-RPC endpoint: register this host for claiming by masters (empty: static wiring only)")
		region    = flag.String("region", "", "placement region tag reported to -registry")
		heartbeat = flag.Duration("heartbeat", 5*time.Second, "registry heartbeat period; the registration lease is three heartbeats")
		hostID    = flag.String("host-id", "", "stable registry identity (default: a fresh random id per start)")
		advertise = flag.String("advertise", "", "control endpoint URL advertised to the registry (default: derived from -listen on 127.0.0.1)")
		obsAddr   = flag.String("obs-addr", "", "serve /metrics, /healthz, /status and pprof on this address (empty disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: excovery-node [flags] [description.xml]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	e, err := desc.Load(*builtin, flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	// One registry serves the whole host process: the emulator data path
	// (netem/sched, via core.Options.Metrics), the event pump and the RPC
	// server. host.obs_snapshot ships its contents to the master's
	// campaign fan-in after every run.
	reg := obs.NewRegistry()
	var host *noderpc.Host
	x, err := core.New(e, core.Options{
		RealTime: true,
		Speed:    *speed,
		Seed:     *seed,
		OnEvent:  func(ev eventlog.Event) { host.ForwardEvent(ev) },
		Metrics:  reg,
	})
	if err != nil {
		fatal(err)
	}
	host = noderpc.NewHost(x)
	x.S.SetKeepAlive(true)

	host.Instrument(reg)
	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg, func() any { return host.Status() })
		if err != nil {
			fatal(err)
		}
		defer osrv.Close()
		fmt.Printf("excovery-node: observability endpoints at http://%s\n", osrv.Addr())
	}

	if *registry != "" {
		// Self-assembling fleet (DESIGN.md §14): announce this host to the
		// discovery registry under a heartbeat-renewed lease. The agent
		// reports the host's accepted fencing epoch with every
		// registration, so a restarted registry re-learns the epoch
		// high-water mark; a refused heartbeat falls back to a full
		// re-registration, healing registry restarts and partitions.
		ids := make([]string, 0, len(x.Managers))
		for id := range x.Managers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		id := *hostID
		if id == "" {
			id = noderpc.NewID("h-")
		}
		agent := &discovery.Agent{
			C:         xmlrpc.NewRetryingClient(*registry, xmlrpc.DefaultRetryPolicy()),
			HostID:    id,
			URL:       advertiseURL(*listen, *advertise),
			Nodes:     ids,
			Region:    *region,
			Heartbeat: *heartbeat,
			Epoch:     host.FenceEpoch,
			Obs:       reg,
		}
		if err := agent.Start(); err != nil {
			fatal(err)
		}
		defer agent.Stop()
		fmt.Printf("excovery-node: registered as %s (%s) with registry %s\n",
			id, agent.URL, *registry)
	}

	srv := host.Server()
	fmt.Printf("excovery-node: hosting %q (%d nodes) on %s, speed %.3f\n",
		e.Name, len(x.Managers), *listen, *speed)
	go func() {
		if err := http.ListenAndServe(*listen, srv); err != nil {
			fatal(err)
		}
	}()
	if err := x.S.Run(); err != nil {
		fatal(err)
	}
}

// advertiseURL derives the control endpoint masters should dial from the
// listen address, unless the operator advertised one explicitly (needed
// behind NAT or when listening on all interfaces of a multi-homed host).
func advertiseURL(listen, advertise string) string {
	if advertise != "" {
		return advertise
	}
	host, port := "127.0.0.1", ""
	if i := strings.LastIndex(listen, ":"); i >= 0 {
		if h := listen[:i]; h != "" && h != "0.0.0.0" && h != "::" && h != "[::]" {
			host = h
		}
		port = listen[i+1:]
	}
	return "http://" + host + ":" + port
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

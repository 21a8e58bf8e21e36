// Command excovery-discovery is the fleet registry of the distributed
// deployment (DESIGN.md §14): node hosts register their control endpoint,
// served nodes and region under a TTL lease renewed by heartbeats, and
// masters claim hosts for a campaign under a fencing epoch. The registry
// is soft-state — restart it freely; the fleet view rebuilds from one
// heartbeat interval of re-registrations.
//
// Usage:
//
//	excovery-discovery -listen :8799
//	excovery-discovery -listen :8799 -obs-addr :9099
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"excovery/internal/discovery"
	"excovery/internal/obs"
)

func main() {
	var (
		listen  = flag.String("listen", ":8799", "XML-RPC listen address")
		obsAddr = flag.String("obs-addr", "", "serve /metrics, /healthz, /status and pprof on this address (empty disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: excovery-discovery [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	reg := obs.NewRegistry()
	r := discovery.NewRegistry()
	r.Instrument(reg)
	r.Start()
	defer r.Close()

	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg, func() any {
			return struct {
				Hosts []discovery.Host `json:"hosts"`
				Epoch int64            `json:"fence_epoch"`
			}{r.Snapshot(), r.Epoch()}
		})
		if err != nil {
			fatal(err)
		}
		defer osrv.Close()
		fmt.Printf("excovery-discovery: observability endpoints at http://%s\n", osrv.Addr())
	}

	srv := r.Server()
	srv.Obs = reg
	fmt.Printf("excovery-discovery: registry on %s\n", *listen)
	if err := http.ListenAndServe(*listen, srv); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

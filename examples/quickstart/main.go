// Quickstart: the one-shot discovery process of Fig. 11.
//
// One service manager (SM) publishes a service; one service user (SU)
// searches for it. The experiment description drives both through their
// preparation, execution and clean-up phases; the program prints the
// resulting event timeline and the discovery time t_R.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/metrics"
)

func main() {
	// Load the Fig. 11 experiment, descriptions/oneshot.xml: a two-party
	// architecture with a 30 s discovery deadline. desc.Builtin parses any
	// embedded description by name, desc.Parse any document.
	exp := desc.OneShot(30)

	// Assemble the emulated platform: two nodes in radio range, default
	// link quality (1 ms delay, 1 % loss), zeroconf SDP.
	x, err := core.New(exp, core.Options{})
	if err != nil {
		fail(err)
	}

	rep, err := x.Run()
	if err != nil {
		fail(err)
	}
	rr := rep.Results[0]
	fmt.Println("event timeline (Fig. 11):")
	for _, ev := range rr.Events {
		fmt.Printf("  %s  %-18s %-4s %v\n",
			ev.Time.Format("15:04:05.000000"), ev.Type, ev.Node, ev.Params)
	}

	ms := metrics.FromReport(exp, rep, "", "")
	if len(ms) == 1 && ms[0].Complete {
		fmt.Printf("\ndiscovery completed: t_R = %s\n", ms[0].TR)
	} else {
		fmt.Println("\ndiscovery did not complete within the deadline")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

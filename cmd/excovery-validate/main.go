// Command excovery-validate checks an experiment description document and
// prints a summary: factors, levels, processes, platform mapping and the
// size of the generated treatment plan.
//
// Usage:
//
//	excovery-validate description.xml
//	excovery-validate -builtin casestudy
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"excovery/internal/desc"
)

func main() {
	builtin := flag.String("builtin", "", "validate an embedded description: "+strings.Join(desc.Builtins(), ", "))
	dump := flag.String("dump", "", "write the (built-in or parsed) description as XML to this file (- for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: excovery-validate [-builtin name] [-dump file] [description.xml]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	e, err := desc.Load(*builtin, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *dump != "" {
		out := os.Stdout
		var f *os.File
		if *dump != "-" {
			var err error
			f, err = os.Create(*dump)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			out = f
		}
		if err := desc.Encode(e, out); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *dump)
		}
		return
	}
	if err := desc.Validate(e); err != nil {
		fmt.Fprintln(os.Stderr, "description invalid:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := desc.GeneratePlan(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plan error:", err)
		os.Exit(1)
	}

	fmt.Printf("experiment %q — %s\n", e.Name, e.Comment)
	for _, p := range e.Params {
		fmt.Printf("  param %-20s %s\n", p.Key, p.Value)
	}
	fmt.Printf("  abstract nodes: %v  environment nodes: %v\n", e.AbstractNodes, e.EnvironmentNodes)
	for _, f := range e.Factors {
		fmt.Printf("  factor %-24s type=%-16s usage=%-10s levels=%d\n",
			f.ID, f.Type, f.Usage, len(f.Levels))
	}
	if e.Repl.Count > 0 {
		fmt.Printf("  replication %-18s count=%d\n", e.Repl.ID, e.Repl.Count)
	}
	for _, np := range e.NodeProcesses {
		fmt.Printf("  node process %-12s role=%-4s actions=%d\n", np.Actor, np.Name, len(np.Actions))
	}
	for _, mp := range e.ManipProcesses {
		fmt.Printf("  manipulation process %-6s actions=%d\n", mp.Actor, len(mp.Actions))
	}
	for i, ep := range e.EnvProcesses {
		fmt.Printf("  env process %d %-12q actions=%d\n", i, ep.Name, len(ep.Actions))
	}
	fmt.Printf("  platform: %d actor nodes, %d env nodes\n", len(e.Platform.Actors), len(e.Platform.Env))
	fmt.Printf("  plan: %d treatments × %d replications = %d runs (%s)\n",
		plan.Treatments, max(1, e.Repl.Count), len(plan.Runs), planKind(e))
	fmt.Println("OK")
}

func planKind(e *desc.Experiment) desc.PlanKind {
	if e.PlanKind == "" {
		return desc.PlanOFAT
	}
	return e.PlanKind
}

// Package excovery is a from-scratch Go reproduction of "ExCovery — A
// Framework for Distributed System Experiments and a Case Study of Service
// Discovery" (Dittrich, Wanja, Malek; IPDPS Workshops 2014).
//
// The module implements the complete experimentation environment the paper
// describes — abstract XML experiment descriptions, deterministic
// treatment-plan generation, an experiment master driving node managers
// through run phases, fault injection and environment manipulation, event
// and packet measurement with time-sync conditioning, and a four-level
// storage hierarchy ending in a single relational database per experiment
// — together with every substrate it needs: a cooperative discrete-event
// scheduler, an emulated wireless mesh network, two service discovery
// protocols (plus a hybrid), an XML-RPC control plane and an embedded
// relational database. See README.md for a tour, DESIGN.md for the system
// inventory and platform substitutions, and EXPERIMENTS.md for
// paper-vs-measured records.
//
// The public entry point is internal/core:
//
//	exp := desc.OneShot(30)
//	x, _ := core.New(exp, core.Options{})
//	rep, _ := x.Run()
//	db, _ := x.Finalize()
//
// This root package carries the science gate (science_test.go): R and t_R
// of every result series EXPERIMENTS.md reports, at fixed seeds, pinned in
// testdata/science.golden.
package excovery

package eventlog

// Name is the type of registered event-type identifiers. It is an alias
// (not a defined type) so registry constants flow into every Emit(string)
// signature without conversions.
type Name = string

// Central registry of framework event types (§IV-B1). Every event the
// framework itself emits — run lifecycle, retry and node-health accounting,
// durability failures — must use a constant from this block: level-3
// conditioning and the EventsOfRun queries select on these exact strings,
// so a typo at an Emit site silently drops events from analysis. Behaviour
// tests catch it: the pinned level-2/3 bytes, the science golden or the
// tests of the emitting path move (DESIGN.md §10.3). Add new event types
// here, never inline.
//
// Service-discovery case-study events (sd_service_add, scm_found, …) live
// in their own registry, internal/sd (sd.Ev*).
const (
	// Experiment lifecycle (§IV-C1 experiment_init / experiment_exit).
	EvExperimentInit Name = "experiment_init"
	EvExperimentExit Name = "experiment_exit"

	// Run lifecycle on nodes (§IV-C1 preparation and clean-up phases).
	EvRunInit Name = "run_init"
	EvRunExit Name = "run_exit"

	// Run-level recovery (DESIGN.md §6): in-place retries, aborts by
	// MaxRunTime, and crashed-session re-execution after journal replay.
	EvRunRetry     Name = "run_retry"
	EvRunAborted   Name = "run_aborted"
	EvRunRecovered Name = "run_recovered"

	// Harvest outcomes (DESIGN.md §8): failed level-2 commits and partial
	// salvage of runs that failed all attempts.
	EvRunHarvestFailed   Name = "run_harvest_failed"
	EvRunPartialHarvest  Name = "run_partial_harvest"
	EvJournalWriteFailed Name = "journal_write_failed"

	// Node health accounting (DESIGN.md §6): a failed preflight probe.
	EvNodeHealthFailed Name = "node_health_failed"

	// Process engine (§IV-C2): an expired wait_for_event dependency.
	EvWaitTimeout Name = "wait_timeout"

	// Environment manipulation (§IV-D2): the action vocabulary doubles as
	// the event types the executor emits when an action takes effect, so
	// the analysis can condition on the exact manipulation window.
	EvEnvTrafficStart Name = "env_traffic_start"
	EvEnvTrafficStop  Name = "env_traffic_stop"
	EvEnvDropAllStart Name = "env_drop_all_start"
	EvEnvDropAllStop  Name = "env_drop_all_stop"

	// Network partition manipulation (chaos vocabulary, DESIGN.md §12):
	// the cut between the two groups and its healing.
	EvEnvPartitionStart Name = "env_partition_start"
	EvEnvPartitionHeal  Name = "env_partition_heal"

	// Fault injections (§IV-D3: "one event per action"): each fault kind
	// emits <kind>_start when the injection takes effect and <kind>_stop
	// when it ends — whether by timing block, explicit fault_stop, or a
	// scenario transition.
	EvFaultInterfaceStart Name = "fault_interface_start"
	EvFaultInterfaceStop  Name = "fault_interface_stop"
	EvFaultMsgLossStart   Name = "fault_msg_loss_start"
	EvFaultMsgLossStop    Name = "fault_msg_loss_stop"
	EvFaultMsgDelayStart  Name = "fault_msg_delay_start"
	EvFaultMsgDelayStop   Name = "fault_msg_delay_stop"
	EvFaultPathLossStart  Name = "fault_path_loss_start"
	EvFaultPathLossStop   Name = "fault_path_loss_stop"
	EvFaultPathDelayStart Name = "fault_path_delay_start"
	EvFaultPathDelayStop  Name = "fault_path_delay_stop"

	// Chaos fault kinds (DESIGN.md §12, pumba-grade vocabulary).
	EvFaultMsgCorruptStart   Name = "fault_msg_corrupt_start"
	EvFaultMsgCorruptStop    Name = "fault_msg_corrupt_stop"
	EvFaultMsgDuplicateStart Name = "fault_msg_duplicate_start"
	EvFaultMsgDuplicateStop  Name = "fault_msg_duplicate_stop"
	EvFaultMsgReorderStart   Name = "fault_msg_reorder_start"
	EvFaultMsgReorderStop    Name = "fault_msg_reorder_stop"
	EvFaultRateLimitStart    Name = "fault_rate_limit_start"
	EvFaultRateLimitStop     Name = "fault_rate_limit_stop"
	EvFaultNodeKillStart     Name = "fault_node_kill_start"
	EvFaultNodeKillStop      Name = "fault_node_kill_stop"
	EvFaultNodePauseStart    Name = "fault_node_pause_start"
	EvFaultNodePauseStop     Name = "fault_node_pause_stop"
	EvFaultNodeStressStart   Name = "fault_node_stress_start"
	EvFaultNodeStressStop    Name = "fault_node_stress_stop"

	// Scenario DSL transitions (DESIGN.md §12): flap cycles reuse the
	// inner fault's start/stop events; ramps additionally mark each step
	// with its interpolated level and the end of the sweep.
	EvFaultRampStep Name = "fault_ramp_step"
	EvFaultRampDone Name = "fault_ramp_done"

	// Self-healing fleet (DESIGN.md §14): a backing node host lost
	// mid-campaign, the re-placement of the in-flight run onto a
	// replacement host, and a failover that found no replacement (the
	// campaign then degrades through the ordinary run-level retry).
	EvFleetHostLost       Name = "fleet_host_lost"
	EvRunReplaced         Name = "run_replaced"
	EvFleetFailoverFailed Name = "fleet_failover_failed"
)

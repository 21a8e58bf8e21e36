package obs

// MetricName is the type of registered metric identifiers. Like
// eventlog.Name it is an alias (not a defined type) so registry constants
// flow into Counter/Gauge/Histogram signatures without conversions.
type MetricName = string

// Central registry of framework metric names. Dashboards, the campaign
// fan-in and the bench/report tooling select series by exact name, so a
// typo at an instrumentation site silently produces an orphan family that
// no consumer ever reads. The metricnames analyzer (internal/lint) rejects
// string literals at Registry.Counter/Gauge/Histogram call sites; add new
// names here, never inline. Dynamically composed names (the campaign
// fan-in's re-exported node series, prefixed MNodePrefix) are out of the
// analyzer's scope by design.
const (
	// Event bus (internal/eventlog).
	MEventbusPublished     MetricName = "excovery_eventbus_published_total"
	MEventbusResets        MetricName = "excovery_eventbus_resets_total"
	MEventbusCancelWaiters MetricName = "excovery_eventbus_cancel_waiters_total"
	MEventbusLen           MetricName = "excovery_eventbus_len"

	// Control channel, server side (internal/xmlrpc).
	MRPCServerRequests            MetricName = "excovery_rpc_server_requests_total"
	MRPCServerDedupReplays        MetricName = "excovery_rpc_server_dedup_replays_total"
	MRPCServerHandlerCalls        MetricName = "excovery_rpc_server_handler_calls_total"
	MRPCServerHandlerLatency      MetricName = "excovery_rpc_server_handler_latency_seconds"
	MRPCServerFailpointInjections MetricName = "excovery_rpc_server_failpoint_injections_total"

	// Control channel, client side (internal/xmlrpc).
	MRPCClientCalls    MetricName = "excovery_rpc_client_calls_total"
	MRPCClientLatency  MetricName = "excovery_rpc_client_latency_seconds"
	MRPCClientAttempts MetricName = "excovery_rpc_client_attempts_total"
	MRPCClientRetries  MetricName = "excovery_rpc_client_retries_total"
	MRPCClientErrors   MetricName = "excovery_rpc_client_errors_total"

	// Control channel codec (internal/xmlrpc): documents that missed the
	// one-pass decoder, by doc (call or response).
	MRPCDecodeFallbacks MetricName = "excovery_rpc_decode_fallbacks_total"

	// Node host (internal/noderpc).
	MHostEventsForwarded MetricName = "excovery_host_events_forwarded_total"
	MHostEventsCarried   MetricName = "excovery_host_events_carried_total"
	MHostEventBatches    MetricName = "excovery_host_event_batches_total"
	MHostEventPushErrors MetricName = "excovery_host_event_push_errors_total"
	MHostOutboxLen       MetricName = "excovery_host_outbox_len"
	MHostMasterAdoptions MetricName = "excovery_host_master_adoptions_total"
	MHostLeaseRenewals   MetricName = "excovery_host_lease_renewals_total"
	MHostLeaseExpiries   MetricName = "excovery_host_lease_expiries_total"

	// Lease client (internal/noderpc).
	MLeaseRenewals MetricName = "excovery_lease_renewals_total"
	MLeaseErrors   MetricName = "excovery_lease_errors_total"
	MLeaseRebinds  MetricName = "excovery_lease_rebinds_total"

	// Master campaign loop (internal/master).
	MRunsSkipped            MetricName = "excovery_runs_skipped_total"
	MRunsRecovered          MetricName = "excovery_runs_recovered_total"
	MRunsRetried            MetricName = "excovery_runs_retried_total"
	MRunsCompleted          MetricName = "excovery_runs_completed_total"
	MRunsFailed             MetricName = "excovery_runs_failed_total"
	MRunsPartial            MetricName = "excovery_runs_partial_total"
	MRunsAborted            MetricName = "excovery_runs_aborted_total"
	MRunAttempts            MetricName = "excovery_run_attempts_total"
	MJournalWriteErrors     MetricName = "excovery_journal_write_errors_total"
	MJournalRecords         MetricName = "excovery_journal_records_total"
	MJournalReplayedRecords MetricName = "excovery_journal_replayed_records_total"
	MCrashFailpoints        MetricName = "excovery_crash_failpoints_total"
	MHealthProbes           MetricName = "excovery_health_probes_total"
	MHealthProbeFailures    MetricName = "excovery_health_probe_failures_total"

	// Network emulator data path (internal/netem). Packet counters carry a
	// node label; drop counters additionally a reason label (the
	// netem.DropReason strings).
	MNetemSent          MetricName = "excovery_netem_packets_sent_total"
	MNetemTransmissions MetricName = "excovery_netem_transmissions_total"
	MNetemDelivered     MetricName = "excovery_netem_packets_delivered_total"
	MNetemDropped       MetricName = "excovery_netem_packets_dropped_total"
	MNetemDuplicated    MetricName = "excovery_netem_packets_duplicated_total"
	MNetemReordered     MetricName = "excovery_netem_packets_reordered_total"
	MNetemCorrupted     MetricName = "excovery_netem_packets_corrupted_total"
	MNetemRateStalls    MetricName = "excovery_netem_rate_limiter_stalls_total"
	MNetemQueueDepth    MetricName = "excovery_netem_queue_depth"
	// Capture path (DESIGN.md §18), per node.
	MNetemCaptured           MetricName = "excovery_netem_captured_total"
	MNetemCaptureBufferBytes MetricName = "excovery_netem_capture_buffer_bytes"
	// Packets that crossed a run boundary: received after the receiver's
	// ResetRunState, sent before it. Per node.
	MNetemStaleRx MetricName = "excovery_netem_stale_rx_total"

	// Environment manipulations (internal/fault): the background traffic
	// generator of Fig. 7.
	MFaultTrafficPackets MetricName = "excovery_fault_traffic_packets_total"
	MFaultTrafficFlows   MetricName = "excovery_fault_traffic_flows"

	// Discrete-event scheduler (internal/sched).
	MSchedSwitches      MetricName = "excovery_sched_switches_total"
	MSchedTimersFired   MetricName = "excovery_sched_timers_fired_total"
	MSchedEventQueueLen MetricName = "excovery_sched_event_queue_len"
	MSchedRunnableLen   MetricName = "excovery_sched_runnable_len"
	MSchedVtimeLagUs    MetricName = "excovery_sched_vtime_lag_us"
	MSchedLockWait      MetricName = "excovery_sched_lock_wait_seconds"

	// Level-3 storage path (internal/store, DESIGN.md §17): per call of
	// Condition, Save and Open, labelled op; rows additionally by table.
	MStoreOpSeconds        MetricName = "excovery_store_op_seconds"
	MStoreRows             MetricName = "excovery_store_rows_total"
	MStoreBytes            MetricName = "excovery_store_bytes_total"
	MStoreDecoderFallbacks MetricName = "excovery_store_decoder_fallbacks_total"

	// Campaign metric fan-in (internal/master): collection accounting plus
	// fleet-wide rollups of the emulator families above.
	MCampaignFanins         MetricName = "excovery_campaign_fanins_total"
	MCampaignFaninErrors    MetricName = "excovery_campaign_fanin_errors_total"
	MCampaignNodesReporting MetricName = "excovery_campaign_nodes_reporting"

	// Discovery registry (internal/discovery, DESIGN.md §14): fleet
	// membership, lease traffic and claim/fencing accounting.
	MRegistryHostsAlive       MetricName = "excovery_registry_hosts_alive"
	MRegistryHostsClaimed     MetricName = "excovery_registry_hosts_claimed"
	MRegistryRegistrations    MetricName = "excovery_registry_registrations_total"
	MRegistryResurrections    MetricName = "excovery_registry_resurrections_total"
	MRegistryHeartbeats       MetricName = "excovery_registry_heartbeats_total"
	MRegistryHeartbeatUnknown MetricName = "excovery_registry_heartbeat_unknown_total"
	MRegistryExpiries         MetricName = "excovery_registry_expiries_total"
	MRegistryClaims           MetricName = "excovery_registry_claims_total"
	MRegistryReleases         MetricName = "excovery_registry_releases_total"
	MRegistryReportsDown      MetricName = "excovery_registry_reports_down_total"
	MRegistryFenceEpoch       MetricName = "excovery_registry_fence_epoch"

	// Host-side fencing (internal/noderpc, DESIGN.md §14).
	MHostFencedRejections MetricName = "excovery_host_fenced_rejections_total"

	// Self-healing fleet placement (internal/master + internal/discovery):
	// mid-campaign host replacement accounting.
	MMasterFailovers      MetricName = "excovery_master_failovers_total"
	MMasterFailoverErrors MetricName = "excovery_master_failover_errors_total"
)

// MNodePrefix prefixes node-host series re-exported by the master's
// campaign fan-in: a node's excovery_netem_packets_dropped_total arrives at
// the master as excovery_node_netem_packets_dropped_total{src="..."}. The
// composed names are intentionally dynamic (see the metricnames analyzer).
const MNodePrefix = "excovery_node_"

// MFleetPrefix prefixes the fan-in's fleet-wide rollups: the same series
// summed across all reporting hosts, with the source label collapsed.
const MFleetPrefix = "excovery_fleet_"

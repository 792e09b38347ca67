package main

// layerNames lists the per-layer metrics of a traced run, in print
// order. BENCHMARK.json's per_layer list holds the same names. Every
// traced run reports all of them; a layer the workload does not load
// reads 0.
var layerNames = []struct{ name, unit string }{
	// Tracing overhead: the traced run's own step time, to set beside
	// the untraced step_ms.
	{"traced.step_ms", "ms"},

	{"gossip.engine_self_ms", "ms"},
	{"gossip.shard_busy_ratio", "ratio"},
	{"gossip.msgs_per_round", "count"},
	{"gossip.allocs_per_round", "count"},

	{"protocol.begin_ms", "ms"},
	{"protocol.emit_ms", "ms"},
	{"protocol.deliver_ms", "ms"},
	{"protocol.end_ms", "ms"},
	{"protocol.exchange_ms", "ms"},
	{"protocol.deliver_ns_per_msg", "ns"},

	{"experiments.fig8_ms", "ms"},
	{"experiments.fig9_ms", "ms"},
	{"experiments.fig10a_ms", "ms"},
	{"experiments.fig10b_ms", "ms"},
	{"experiments.fig11avg_ms", "ms"},
	{"experiments.fig11sum_ms", "ms"},
	{"experiments.alloc_mb", "MB"},

	{"live.begin_ms", "ms"},
	{"live.drain_ms", "ms"},
	{"live.emit_ms", "ms"},
	{"live.self_deliver_ms", "ms"},
	{"live.end_ms", "ms"},
	{"live.send_ms", "ms"},
	{"live.tick_self_ms", "ms"},
	{"live.fold_ns_per_msg", "ns"},
	{"live.driver_busy_ratio", "ratio"},

	{"transport.frames_per_tick", "count"},
	{"transport.bytes_per_msg", "B"},
	{"transport.send_ns_per_frame", "ns"},
	{"transport.delivered_ratio", "ratio"},
	{"transport.dropped", "count"},
	{"transport.overflow", "count"},
	{"transport.reconnects", "count"},
	{"transport.worker_msgs_per_s", "1/s"},

	{"gateway.handler_p50_us", "us"},
	{"gateway.handler_p99_us", "us"},
	{"gateway.stack_p50_us", "us"},
	{"gateway.allocs_per_read", "count"},
	{"gateway.bytes_per_read", "B"},
	{"gateway.read_p99_us", "us"},
	{"gateway.read_samples", "count"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

package main

// On a virtual machine whose host also runs other machines, a busy host
// "steals" CPU time: the guest's vCPUs are runnable but descheduled. On a
// 2-core machine this can add tens of percent to every wall-clock latency
// for minutes at a time, and it is not the program's behaviour. Every timed
// phase therefore reports the steal share it ran under. Only setup_s,
// server_rss_mb and disk_mb are gated; latencies and CPU times are printed
// with their sample counts but not gated.

// stealSince is the machine-wide steal share of CPU time since a
// cpuTimes reading.
func stealSince(steal0, total0 int64) float64 {
	s, t := cpuTimes()
	return float64(s-steal0) / float64(max(t-total0, 1))
}

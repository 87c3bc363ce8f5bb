# Sourced, not run: sets the `pin` array to a `taskset` prefix for the last
# allowed CPU (empty where there is no taskset).
#
# Sim threads run one at a time. On x86-64 Linux they are fibers of one OS
# thread, and one CPU keeps host-clock numbers comparable from run to run.
# Elsewhere they are OS threads, and unpinned every hand-off wakes an idle
# CPU (the stability probe: 74 s pinned, 6 to 30 min not, on a 2-vCPU
# sandbox, before fibers).
pin=()
if command -v taskset >/dev/null; then
    cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)
    pin=(taskset -c "${cpus##*[,-]}")
fi

# Sourced, not run: sets the `pin` array to a `taskset` prefix for the last
# allowed CPU (empty where there is no taskset).
#
# Sim threads are OS threads of which one runs at a time. On one CPU a
# hand-off is a context switch; across CPUs it wakes an idle CPU each time
# (the stability probe: 74 s pinned, 6 to 30 min not, on a 2-vCPU sandbox).
pin=()
if command -v taskset >/dev/null; then
    cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)
    pin=(taskset -c "${cpus##*[,-]}")
fi

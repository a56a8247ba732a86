"""The repo benchmark: six fixed workloads, host cost and fidelity end to
end, a per-layer split from two traced passes.  See README.md here."""

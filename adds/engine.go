package adds

import "repro/internal/core/pathmatrix"

// Engine-level introspection and tuning, re-exported so observability and
// benchmarking tools never import internal packages directly.

// EngineStats is a snapshot of the analysis engine's process-wide counters:
// fixpoint iterations, matrix clones, transfer-memo hits and misses, shared
// and dropped rows. See pathmatrix.Stats for field semantics.
type EngineStats = pathmatrix.Stats

// ReadEngineStats returns the engine counters since process start.
func ReadEngineStats() EngineStats { return pathmatrix.ReadStats() }

// EngineVersion identifies the analysis engine semantics. It stamps API
// responses, content-addressed caches and benchmark files; two equal
// versions promise byte-identical analysis output for identical input.
func EngineVersion() string { return pathmatrix.EngineVersion }

// SetEngineMemo enables or disables the process-wide transfer-function memo
// and reports the previous setting. The memo is semantics-free (outputs are
// byte-identical either way); disabling it exists for benchmarks and
// differential harnesses. Not synchronized with running analyses: flip it
// only between runs.
func SetEngineMemo(on bool) (prev bool) {
	prev = pathmatrix.Memoize
	pathmatrix.Memoize = on
	return prev
}

// EngineMemoEnabled reports whether the transfer-function memo is on.
func EngineMemoEnabled() bool { return pathmatrix.Memoize }

// SetEngineSummaries enables or disables compositional interprocedural
// analysis globally (pathmatrix.Summarize) and reports the previous setting.
// With summaries off, every call statement applies the opaque all-args
// havoc. Changing this changes analysis results for multi-function programs.
// Not synchronized: flip it only between runs.
func SetEngineSummaries(on bool) (prev bool) {
	prev = pathmatrix.Summarize
	pathmatrix.Summarize = on
	return prev
}

// EngineSummariesEnabled reports whether interprocedural summaries are on.
func EngineSummariesEnabled() bool { return pathmatrix.Summarize }

// ResetEngineSummaryCache empties the process-wide content-addressed summary
// cache (cold-cache benchmarks and tests that assert cache-miss counts).
func ResetEngineSummaryCache() { pathmatrix.ResetSummaryCache() }

// SetEngineLiveness enables or disables the engine's interleaved liveness
// pass globally and reports the previous setting: relations between dead
// pointer variables are dropped mid-fixpoint, bounding matrix growth on
// hostile programs at the cost of conservative answers for dead variables
// (the oracles fall back automatically). Unlike the memo this changes
// analysis results. Not synchronized: flip it only between runs.
func SetEngineLiveness(on bool) (prev bool) {
	prev = pathmatrix.Liveness
	pathmatrix.Liveness = on
	return prev
}

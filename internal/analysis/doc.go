// Package analysis is the engine behind cmd/sclint: a stdlib-only static
// analyzer (go/parser + go/ast + go/types with the source importer — no
// x/tools dependency) that loads every package in the module and enforces
// the project-specific invariants the previous PRs introduced and go vet
// cannot see:
//
//   - atomic-mixing — a field accessed through sync/atomic (function-style
//     on a plain integer, or a typed atomic.* value) must never be read or
//     written plainly elsewhere; the lock-free Bloom probe and LRU recency
//     paths are only correct if every access goes through the atomic API.
//   - determinism — internal/faultnet, internal/sim and internal/bench are
//     replay paths: a scenario re-run with the same seed must make the
//     same decisions. time.Now, the math/rand global generator, and map
//     iteration order all smuggle nondeterminism into a replay.
//   - stats-drift — every plain counter registered against an obs.Registry
//     must surface as an exported field of the package's Stats struct, the
//     PR-1 "Stats() == scrape" contract.
//   - unchecked-close — a non-deferred Close/Flush/Sync whose error result
//     is silently discarded in library code.
//   - stray-printing — fmt.Print*/log.Print*/println in library code;
//     only main packages (cmd/, examples/) may write to process streams,
//     libraries report through log/slog and internal/obs.
//   - lock-order — mutex acquisition order must be acyclic across the
//     whole module's static call graph; an intended hierarchy is declared
//     with //lint:lockorder A < B <reason>.
//   - goroutine-lifecycle — a goroutine spawned from library code must
//     have a reachable shutdown path, not an unconditional loop without
//     an exit anywhere down its call chain.
//
// Findings print as "file:line: [rule] message" and are suppressed, one
// site at a time, with an in-source directive that must carry a reason:
//
//	//lint:ignore sclint/<rule> <reason>
//
// placed on the offending line or on the line directly above it. The
// test suite pins each rule's behavior with positive and negative fixture
// packages under testdata/src and a golden findings file.
package analysis

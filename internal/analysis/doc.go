// Package analysis is the engine behind cmd/sclint: a stdlib-only static
// analyzer (go/parser + go/ast + go/types with the source importer — no
// x/tools dependency) that loads every package in the module and enforces
// the project-specific invariants nothing else in the build checks:
//
//   - unchecked-close — a non-deferred Close/Flush/Sync whose error result
//     is silently discarded in library code.
//   - stray-printing — fmt.Print*/log.Print*/println in library code;
//     only main packages (cmd/, examples/) may write to process streams,
//     libraries report through log/slog and internal/obs.
//   - lock-order — mutex acquisition order must be acyclic across the
//     whole module's static call graph; an intended hierarchy is declared
//     with //lint:lockorder A < B <reason>.
//
// Properties other checks already catch have no rule here: go vet's
// copylocks and a CI grep keep sync/atomic use typed, leakcheck.Main in
// each goroutine-starting package's TestMain catches goroutines that
// outlive their tests, replay tests pin the seeded paths, and the
// httpproxy scrape test pins Stats() to /metrics.
//
// Findings print as "file:line: [rule] message" and are suppressed, one
// site at a time, with an in-source directive that must carry a reason
// and name a rule of the suite:
//
//	//lint:ignore sclint/<rule> <reason>
//
// placed on the offending line or on the line directly above it. The
// test suite pins each rule's behavior with positive and negative fixture
// packages under testdata/src and a golden findings file.
package analysis

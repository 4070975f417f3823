// Package paperbench holds the benchmarks that regenerate every table and
// figure of the paper's evaluation (run with `go test -bench=. ./internal/paperbench`).
// It contains no library code; keeping the benchmarks here leaves the
// module root with no Go file but doc.go.
package paperbench

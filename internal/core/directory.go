// Package core implements the summary-cache protocol of Fan, Cao, Almeida
// and Broder (SIGCOMM '98) as a reusable library: each proxy maintains a
// counting-Bloom-filter summary of its own cache directory
// (bloom.Directory), holds a plain-filter replica of every registered
// peer's summary, and binds the two to the ICP transport as the
// summary-cache enhanced ICP node (Node). On a local miss the node probes
// the peer summaries and queries only the proxies whose summaries show
// promise — the mechanism that cuts inter-proxy messages by the paper's
// factor of 25–60 versus query-everyone ICP.
package core

import "summarycache/internal/bloom"

// DirectoryConfig forwards to bloom.DirectoryConfig for the benchmark
// module, which still names it here. To be deleted (ROADMAP item 1).
type DirectoryConfig = bloom.DirectoryConfig

// NewDirectory forwards to bloom.NewDirectory for the benchmark module,
// which still calls it here. To be deleted (ROADMAP item 1).
func NewDirectory(cfg DirectoryConfig) (*bloom.Directory, error) { return bloom.NewDirectory(cfg) }

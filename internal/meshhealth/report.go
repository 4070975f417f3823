package meshhealth

// Report is one node's complete mesh-health view: its own advertisement
// state plus one row per peer. The httpproxy layer assembles it from its
// cache and its node, whose peer records give the rows; /debug/mesh
// renders it as JSON or HTML.
type Report struct {
	// Proxy is the HTTP listen address; Node the ICP address (empty when
	// the proxy runs without a protocol node, in ModeNone).
	Proxy string `json:"proxy"`
	Node  string `json:"node,omitempty"`
	Mode  string `json:"mode"`

	Local LocalReport  `json:"local"`
	Peers []PeerReport `json:"peers"`

	// RecentFalse is the evidence trail: the latest false decisions with
	// trace-ID links into /debug/traces.
	RecentFalse []FalseDecision `json:"recent_false_decisions,omitempty"`
}

// LocalReport is the local-advertisement staleness view: how far the
// local directory has drifted ahead of what the peers have been told.
type LocalReport struct {
	// DirectoryDocs is the local directory's document count.
	DirectoryDocs int64 `json:"directory_docs"`
	// PendingFlips counts bit flips journaled but not yet advertised.
	PendingFlips int `json:"pending_flips"`
	// LastAdvertAgeMS is milliseconds since the last published update
	// (-1: never published).
	LastAdvertAgeMS float64 `json:"last_advert_age_ms"`
	// UpdatesSent / UpdateEvents count DIRUPDATE messages and publish
	// events; FullBytesOut and DeltaBytesOut split the advertised bytes
	// by update kind.
	UpdatesSent   uint64 `json:"updates_sent"`
	UpdateEvents  uint64 `json:"update_events"`
	FullBytesOut  uint64 `json:"full_bytes_out"`
	DeltaBytesOut uint64 `json:"delta_bytes_out"`
	// CacheEntries / CacheBytes describe the document cache backing the
	// directory.
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// Recoveries counts warm restarts this node recovered persisted state
	// on; RecoveredEntries is the document count the most recent recovery
	// reinstalled (both zero when persistence is off).
	Recoveries       uint64 `json:"recoveries"`
	RecoveredEntries int    `json:"recovered_entries"`
}

// PeerReport is one peer row of the mesh table: replica health, liveness,
// wire accounting, and attributed decisions.
type PeerReport struct {
	Peer string `json:"peer"`
	// Up reports the peer's liveness state is up; Breaker names that state
	// ("up", "down", "probing"; empty when the proxy's fetches never
	// consult it).
	Up      bool   `json:"up"`
	Breaker string `json:"breaker,omitempty"`

	// Replica health (zeroed when no replica is initialized yet).
	HasReplica       bool    `json:"has_replica"`
	Generation       uint64  `json:"generation"`
	UpdateAgeMS      float64 `json:"update_age_ms"`
	FillRatio        float64 `json:"fill_ratio"`
	EstFalsePositive float64 `json:"est_false_positive"`
	FilterBits       uint64  `json:"filter_bits"`

	// Wire accounting: updates and bytes received from the peer, and
	// updates and bytes sent to it.
	FullUpdates  uint64 `json:"full_updates"`
	DeltaUpdates uint64 `json:"delta_updates"`
	BytesIn      uint64 `json:"bytes_in"`
	UpdatesSent  uint64 `json:"updates_sent"`
	BytesOut     uint64 `json:"bytes_out"`

	// Decisions are the attributed lookup outcomes; Divergence is
	// FalseHits/Nominations.
	Decisions  PeerStats `json:"decisions"`
	Divergence float64   `json:"divergence"`
}

package baywatch

import (
	"context"

	"baywatch/internal/dnslog"
	"baywatch/internal/netflow"
	"baywatch/internal/pipeline"
)

// PairEvent is the source-agnostic observation data extraction
// consumes: one interaction of one (source, destination) pair. Web-proxy,
// DNS and NetFlow sources all reduce to this shape.
type PairEvent = pipeline.PairEvent

// DNSRecord is one DNS query log entry (resolver view).
type DNSRecord = dnslog.Record

// FlowRecord is one NetFlow-style flow record (perimeter view).
type FlowRecord = netflow.Record

// ExtractFromEvents runs data extraction over source-agnostic pair
// events.
func ExtractFromEvents(ctx context.Context, events []PairEvent, scale int64) ([]*ActivitySummary, error) {
	sums, _, err := pipeline.ExtractSummaries(ctx, events, scale, 0)
	return sums, err
}

// DNSFromProxyTrace derives the query log an internal resolver would see
// for the given web traffic, with cache suppression: repeat lookups of the
// same name by the same client within ttl seconds produce no query.
func DNSFromProxyTrace(records []*Record, ttl int64) []*DNSRecord {
	return dnslog.FromProxyTrace(records, ttl)
}

// DNSPairEvents converts DNS queries into pair events ((client, qname)
// pairs). corr may be nil to use raw client IPs.
func DNSPairEvents(records []*DNSRecord, corr *Correlator) []PairEvent {
	return dnslog.ToPairEvents(records, corr)
}

// FlowsFromProxyTrace derives the flow records a perimeter exporter would
// produce for the given web traffic (destination IPs synthesized stably
// per domain).
func FlowsFromProxyTrace(records []*Record) []*FlowRecord {
	return netflow.FromProxyTrace(records)
}

// FlowPairEvents converts flows into pair events ((source, dstIP:port)
// pairs). corr may be nil to use raw source IPs.
func FlowPairEvents(records []*FlowRecord, corr *Correlator) []PairEvent {
	return netflow.ToPairEvents(records, corr)
}

package types

// Wire-format registry: the stable numbering that lets a hand-rolled
// binary codec identify message types without per-connection type
// dictionaries. The byte-level encoding lives in internal/codec;
// this file owns only the identity rules, because they must outlive
// any single codec implementation:
//
//   - Tags are never reused. A retired message keeps its number
//     forever (mark it reserved); a new message takes the next free
//     one. Reusing a tag would make two deployments parse each
//     other's frames as the wrong type without any error.
//   - New fields append. Within one WireVersion, decoders ignore
//     trailing bytes they do not understand, so a newer encoder may
//     append fields and still interoperate with an older decoder.
//   - WireVersion bumps only for incompatible re-layouts (field
//     reordering, width changes, removed fields). A decoder rejects
//     frames carrying a version it does not speak.

// WireVersion is the current frame format version, carried in every
// frame header. Version 2 dropped ProposalMsg's payload-ID list.
const WireVersion = 2

// WireTag identifies a message type on the wire. The zero value is
// invalid, so an all-zero frame never parses as a real message.
type WireTag uint8

// The stable tag assignments. Append only; never renumber. Tags 12
// (PayloadBatch), 14 (Query), 15 (QueryReply) and 16 (Slow) belong to
// retired messages no replica sent: they stay reserved, a frame
// carrying one decodes as an unknown tag, and the next new message
// takes 17.
const (
	TagInvalid          WireTag = 0
	TagProposal         WireTag = 1
	TagVote             WireTag = 2
	TagTimeout          WireTag = 3
	TagTC               WireTag = 4
	TagFetch            WireTag = 5
	TagSyncRequest      WireTag = 6
	TagSyncResponse     WireTag = 7
	TagSnapshotRequest  WireTag = 8
	TagSnapshotManifest WireTag = 9
	TagSnapshotChunk    WireTag = 10
	TagRequest          WireTag = 11
	TagReply            WireTag = 13
)

// WireTagOf returns the stable tag for a registered wire message, or
// (TagInvalid, false) for anything else. Messages travel as values, so
// only value forms are registered.
func WireTagOf(msg any) (WireTag, bool) {
	switch msg.(type) {
	case ProposalMsg:
		return TagProposal, true
	case VoteMsg:
		return TagVote, true
	case TimeoutMsg:
		return TagTimeout, true
	case TCMsg:
		return TagTC, true
	case FetchMsg:
		return TagFetch, true
	case SyncRequestMsg:
		return TagSyncRequest, true
	case SyncResponseMsg:
		return TagSyncResponse, true
	case SnapshotRequestMsg:
		return TagSnapshotRequest, true
	case SnapshotManifestMsg:
		return TagSnapshotManifest, true
	case SnapshotChunkMsg:
		return TagSnapshotChunk, true
	case RequestMsg:
		return TagRequest, true
	case ReplyMsg:
		return TagReply, true
	}
	return TagInvalid, false
}

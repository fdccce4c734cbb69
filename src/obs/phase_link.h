// Span <-> phase-tree linkage: convert a [begin, end) slice of a
// trace::Recorder's PRAM phase-event log into obs::Span children of a
// request's exec span, on the absolute steady-clock timeline
// (Recorder::epoch_ns() + wall_us offset).
//
// Ownership caveat the serving layer must respect: the event slice
// aliases the recorder's internal vector, which the shard's next run
// appends to — so the conversion must happen before the shard's worker
// starts its next batch (service.cpp converts during the batch's
// fan-out; the resulting Spans carry interned names and own nothing).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "trace/recorder.h"

namespace iph::obs {

/// Convert events [range.first, range.second) of `rec` to closed spans
/// parented under `parent_id` (nested phases nest; an unmatched open is
/// closed at the slice end, an unmatched close is skipped). Span ids
/// are assigned from kFirstPhaseSpanId. At most kMaxPhaseSpans spans
/// are returned; *truncated is set (never cleared) when the cap or the
/// recorder's own event cap cut the tree short. Returns empty when rec
/// is null or the range is empty/invalid.
std::vector<Span> phase_spans_from_events(
    const trace::Recorder* rec, std::pair<std::size_t, std::size_t> range,
    std::uint32_t parent_id, bool* truncated);

}  // namespace iph::obs

#include "storage/rewrite.h"

#include <optional>
#include <string>
#include <utility>

#include "client/client_filter.h"
#include "columnar/file_reader.h"
#include "columnar/json_converter.h"
#include "engine/vectorized_eval.h"
#include "json/chunk.h"
#include "predicate/pattern_compiler.h"

namespace ciao {

namespace {

/// Copies row `r` of `src` onto the end of each column of `dst`.
void AppendRow(columnar::RecordBatch* dst, const columnar::RecordBatch& src,
               size_t r) {
  for (size_t c = 0; c < src.num_columns(); ++c) {
    const columnar::ColumnVector& from = src.column(c);
    columnar::ColumnVector* to = dst->mutable_column(c);
    if (!from.IsValid(r)) {
      to->AppendNull();
      continue;
    }
    switch (from.type()) {
      case columnar::ColumnType::kInt64:
        to->AppendInt64(from.GetInt64(r));
        break;
      case columnar::ColumnType::kDouble:
        to->AppendDouble(from.GetDouble(r));
        break;
      case columnar::ColumnType::kBool:
        to->AppendBool(from.GetBool(r));
        break;
      case columnar::ColumnType::kString:
        to->AppendString(from.GetString(r));
        break;
    }
  }
}

/// Segment input: pins and decodes every row group, then annotates it
/// with exact bits, one vectorized clause per registered predicate.
Status ReadSegments(const std::vector<SegmentRef>& segments,
                    const PredicateRegistry& registry,
                    uint64_t annotation_epoch, const columnar::Schema& schema,
                    std::vector<AnnotatedGroup>* groups, RewriteStats* stats) {
  std::vector<VectorizedQuery> clauses;
  clauses.reserve(registry.size());
  for (const RegisteredPredicate& p : registry.predicates()) {
    Query probe;
    probe.clauses = {p.clause};
    CIAO_ASSIGN_OR_RETURN(VectorizedQuery clause,
                          VectorizedQuery::Compile(probe, schema));
    clauses.push_back(std::move(clause));
  }
  for (const SegmentRef& segment : segments) {
    CIAO_ASSIGN_OR_RETURN(const PinnedSegment pin, PinSegment(*segment));
    CIAO_ASSIGN_OR_RETURN(columnar::TableReader reader,
                          columnar::TableReader::OpenBorrowed(pin.bytes));
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      CIAO_ASSIGN_OR_RETURN(columnar::RowGroupMeta meta, reader.ReadMeta(g));
      // A segment already tagged with the target epoch carries one slot
      // per registered predicate; anything else is a tagging bug.
      if (segment->annotation_epoch == annotation_epoch &&
          meta.annotations.num_predicates() != registry.size()) {
        return Status::Internal(
            "rewrite: segment annotation slots do not match the epoch "
            "registry");
      }
      CIAO_ASSIGN_OR_RETURN(columnar::RecordBatch batch, reader.ReadBatch(g));
      if (batch.num_rows() != meta.num_rows) {
        return Status::Corruption("rewrite: row group body != header rows");
      }
      BitVectorSet bits(clauses.size(), meta.num_rows);
      for (size_t p = 0; p < clauses.size(); ++p) {
        CIAO_ASSIGN_OR_RETURN(*bits.mutable_vector(p),
                              clauses[p].Evaluate(batch, meta.num_rows));
      }
      groups->push_back(AnnotatedGroup{std::move(batch), std::move(bits)});
      ++stats->groups_read;
      stats->rows_read += meta.num_rows;
    }
    ++stats->segments_read;
  }
  return Status::OK();
}

/// Sideline input: selects records, annotates the candidates with the
/// client prefilter's bits over their raw bytes, and parses the selected
/// ones into one group. `moved` gets one bit per sideline record, set iff
/// the record was parsed (and so leaves the sideline).
Status ReadSideline(const RewriteInput& input,
                    const PredicateRegistry& registry,
                    const columnar::Schema& schema,
                    std::vector<AnnotatedGroup>* groups, BitVector* moved,
                    RewriteStats* stats) {
  const RawStore& raw = *input.sideline;
  // Clauses that cannot run on raw bytes (e.g. ranges) do not screen;
  // with no screenable clause every record is a candidate.
  std::vector<RawClauseProgram> screen;
  if (input.select == SidelineSelect::kQueryScreen && input.query != nullptr) {
    for (const Clause& clause : input.query->clauses) {
      if (!clause.SupportedOnClient()) continue;
      Result<RawClauseProgram> program = RawClauseProgram::Compile(clause);
      if (program.ok()) screen.push_back(std::move(program).value());
    }
  }
  json::JsonChunk candidates;
  std::vector<uint32_t> source;  // candidate -> sideline record index
  if (screen.empty()) {
    candidates.Reserve(raw.size(), raw.byte_size() + raw.size());
  }
  for (size_t i = 0; i < raw.size(); ++i) {
    const std::string_view record = raw.Record(i);
    bool maybe = true;
    for (const RawClauseProgram& program : screen) {
      if (!program.Matches(record)) {  // conjunction: one miss rules out
        maybe = false;
        break;
      }
    }
    if (!maybe) {
      ++stats->records_unselected;
      continue;
    }
    candidates.AppendSerialized(record);
    source.push_back(static_cast<uint32_t>(i));
  }
  *moved = BitVector(raw.size());
  if (candidates.empty()) return Status::OK();

  BitVectorSet bits;
  if (!registry.empty()) {
    PrefilterStats prefilter;
    bits = ClientFilter(&registry).Evaluate(candidates, &prefilter);
  }
  BitVector load(candidates.size(), true);
  if (input.select == SidelineSelect::kAnyClientBit) {
    load = registry.empty() ? BitVector(candidates.size()) : bits.UnionAll();
    stats->records_unselected += candidates.size() - load.CountOnes();
  }
  columnar::BatchBuilder builder(schema);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!load.Get(i)) continue;
    if (builder.AppendSerialized(candidates.Record(i)).ok()) {
      moved->Set(source[i], true);
    } else {
      load.Set(i, false);
      ++stats->parse_failures;
    }
  }
  const size_t rows = builder.num_rows();
  if (rows == 0) return Status::OK();
  AnnotatedGroup group{builder.Finish(), BitVectorSet()};
  if (!registry.empty()) {
    CIAO_ASSIGN_OR_RETURN(group.bits, bits.CompactBy(load));
  }
  groups->push_back(std::move(group));
  stats->rows_read += rows;
  return Status::OK();
}

/// One sealed output file.
struct OutputFile {
  std::string bytes;
  uint64_t rows = 0;
  uint64_t groups = 0;
};

/// Packs ordered rows into row groups and files. Each run fills its own
/// pending group, so rows of different runs never share one. A pending
/// group that is exactly one whole input group, in order, is written
/// without copying its rows.
class RunWriter {
 public:
  RunWriter(const columnar::Schema& schema, const RewriteLayout& layout,
            const std::vector<AnnotatedGroup>& groups, size_t num_predicates)
      : schema_(schema),
        layout_(layout),
        groups_(groups),
        num_predicates_(num_predicates),
        writer_(schema, layout.columns) {}

  Status Add(const RowRef& ref) {
    if (ref.run >= pending_.size()) pending_.resize(ref.run + 1);
    std::vector<RowRef>& run = pending_[ref.run];
    run.push_back(ref);
    if (layout_.rows_per_group > 0 && run.size() >= layout_.rows_per_group) {
      return Flush(&run);
    }
    return Status::OK();
  }

  /// Flushes every run's partial group, in run order, and seals.
  Result<std::vector<OutputFile>> Finish() && {
    for (std::vector<RowRef>& run : pending_) {
      CIAO_RETURN_IF_ERROR(Flush(&run));
    }
    Seal();
    return std::move(files_);
  }

 private:
  Status Flush(std::vector<RowRef>* run) {
    if (run->empty()) return Status::OK();
    const uint32_t first = run->front().group;
    bool whole = run->size() == groups_[first].batch.num_rows();
    for (size_t i = 0; whole && i < run->size(); ++i) {
      whole = (*run)[i].group == first && (*run)[i].row == i;
    }
    if (whole) {
      CIAO_RETURN_IF_ERROR(writer_.AppendRowGroup(groups_[first].batch,
                                                  groups_[first].bits));
    } else {
      columnar::RecordBatch batch(schema_);
      BitVectorSet bits(num_predicates_, run->size());
      for (size_t i = 0; i < run->size(); ++i) {
        const AnnotatedGroup& src = groups_[(*run)[i].group];
        const size_t row = (*run)[i].row;
        AppendRow(&batch, src.batch, row);
        for (size_t p = 0; p < num_predicates_; ++p) {
          if (src.bits.vector(p).Get(row)) bits.mutable_vector(p)->Set(i, true);
        }
      }
      CIAO_RETURN_IF_ERROR(writer_.AppendRowGroup(batch, bits));
    }
    file_rows_ += run->size();
    run->clear();
    if (layout_.groups_per_file > 0 &&
        writer_.num_row_groups() >= layout_.groups_per_file) {
      Seal();
    }
    return Status::OK();
  }

  void Seal() {
    if (writer_.num_row_groups() == 0) return;
    OutputFile file;
    file.rows = file_rows_;
    file.groups = writer_.num_row_groups();
    file.bytes = std::move(writer_).Finish();
    files_.push_back(std::move(file));
    writer_ = columnar::TableWriter(schema_, layout_.columns);
    file_rows_ = 0;
  }

  const columnar::Schema& schema_;
  const RewriteLayout& layout_;
  const std::vector<AnnotatedGroup>& groups_;
  const size_t num_predicates_;
  /// pending_[run] = rows waiting for the run's next group.
  std::vector<std::vector<RowRef>> pending_;
  columnar::TableWriter writer_;
  uint64_t file_rows_ = 0;
  std::vector<OutputFile> files_;
};

}  // namespace

Status RewriteSegments(TableCatalog* catalog, const PredicateRegistry& registry,
                       uint64_t annotation_epoch, const RewriteInput& input,
                       const RowOrder& order, const RewriteLayout& layout,
                       RewriteStats* stats) {
  const columnar::Schema& schema = catalog->schema();
  const bool from_segments = !input.segments.empty();
  std::vector<AnnotatedGroup> groups;
  BitVector moved;
  if (from_segments) {
    CIAO_RETURN_IF_ERROR(ReadSegments(input.segments, registry,
                                      annotation_epoch, schema, &groups,
                                      stats));
  } else if (input.sideline != nullptr) {
    CIAO_RETURN_IF_ERROR(
        ReadSideline(input, registry, schema, &groups, &moved, stats));
  }
  std::vector<RowRef> refs;
  if (order) {
    refs = order(groups);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t r = 0; r < groups[g].batch.num_rows(); ++r) {
        refs.push_back(
            RowRef{static_cast<uint32_t>(g), static_cast<uint32_t>(r), 0});
      }
    }
  }
  if (refs.empty()) return Status::OK();  // no row moves

  RunWriter writer(schema, layout, groups, registry.size());
  for (const RowRef& ref : refs) CIAO_RETURN_IF_ERROR(writer.Add(ref));
  CIAO_ASSIGN_OR_RETURN(std::vector<OutputFile> files,
                        std::move(writer).Finish());

  std::vector<ColumnarSegment> outputs;
  outputs.reserve(files.size());
  uint64_t groups_written = 0;
  for (OutputFile& file : files) {
    ColumnarSegment segment;
    segment.file_bytes = std::move(file.bytes);
    segment.num_rows = file.rows;
    segment.annotation_epoch = annotation_epoch;
    segment.annotations_exact = from_segments;
    groups_written += file.groups;
    outputs.push_back(std::move(segment));
  }
  std::optional<RawStore> kept;
  if (!from_segments) {
    const RawStore& raw = *input.sideline;
    kept.emplace();
    for (size_t i = 0; i < raw.size(); ++i) {
      if (!moved.Get(i)) kept->Append(raw.Record(i));
    }
  }
  // All-or-nothing: a concurrent snapshot sees every input row in exactly
  // one place, before or after the move.
  stats->published = catalog->ReplaceSegments(input.segments,
                                              std::move(outputs),
                                              std::move(kept));
  if (stats->published) {
    stats->files_written += files.size();
    stats->groups_written += groups_written;
  }
  return Status::OK();
}

}  // namespace ciao

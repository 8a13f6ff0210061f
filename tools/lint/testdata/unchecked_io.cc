// Fixture: the unchecked-io rule — statements that discard the bool/Status
// result of the repo's IO entry points fire; every consuming shape stays
// clean; a justified suppression silences; `(void)` does not exempt.

namespace fixture {

struct Status {
  bool ok() const { return true; }
};

struct PageFile {
  bool ReadPage(unsigned long page, void* out) const;
  bool WritePage(unsigned long page, const void* data);
  bool Sync();
  Status TryReadPage(unsigned long page, void* out) const;
  Status TrySync();
};

struct Writer {
  bool Append(int sample, double weight);
  bool Finish();
  const Status& status() const;
};

Status SaveCheckpoint(const int& ckpt, const char* path);
Status WriteFileAtomic(const char* path, const void* data, unsigned long n,
                       const char* failpoint_base);

struct GraphStore;
struct Graph;
Status ComposeGraphFingerprint(GraphStore& store, unsigned long* out);
Status MaterializeGraph(GraphStore& store, Graph* out);

// --- Violations: the result is the only failure channel ---------------------

void DiscardsEverywhere(PageFile& file, Writer& writer, char* buf) {
  file.WritePage(0, buf);  // expect-lint: unchecked-io
  file.Sync();  // expect-lint: unchecked-io
  writer.Append(7, 0.5);  // expect-lint: unchecked-io
  writer.Finish();  // expect-lint: unchecked-io
  SaveCheckpoint(3, "ckpt.bin");  // expect-lint: unchecked-io
  WriteFileAtomic("f", buf, 8, "site");  // expect-lint: unchecked-io
}

void PointerChainsAndVoidCasts(PageFile* file, Writer* writer, char* buf) {
  file->ReadPage(1, buf);  // expect-lint: unchecked-io
  file->TrySync();  // expect-lint: unchecked-io
  // Casting to void silences -Wunused-result, not the lost error.
  (void)writer->Finish();  // expect-lint: unchecked-io
}

// A shard scan's Status is its only failure channel: the out-parameter is
// left unset when a pin fails.
void DiscardsShardScans(GraphStore& store, Graph* graph) {
  unsigned long fingerprint = 0;
  ComposeGraphFingerprint(store, &fingerprint);  // expect-lint: unchecked-io
  MaterializeGraph(store, graph);  // expect-lint: unchecked-io
}

// --- Clean: every shape that consumes the result ----------------------------

bool ConsumesResults(PageFile& file, Writer& writer, char* buf) {
  bool ok = file.ReadPage(0, buf);       // assignment
  ok = writer.Append(1, 2.0) && ok;      // expression operand
  if (!file.Sync()) return false;        // condition
  while (writer.Append(2, 1.0)) break;   // loop condition
  const Status publish = SaveCheckpoint(9, "ckpt.bin");
  if (!publish.ok()) return false;
  return writer.Finish();                // return value
}

Status PropagatesStatus(PageFile& file, char* buf) {
  return file.TryReadPage(4, buf);  // returned, not discarded
}

// Declarations and definitions never match: the return type sits where a
// statement boundary would be.
bool Finish();
Status TrySync();

// Unrelated names that merely resemble IO verbs stay clean.
struct Blob {
  void append(char c);
};
void DomainVerbs(Blob& blob) {
  blob.append('x');  // lowercase std-style append, not the writer's
}

// A justified suppression on the line above covers the call.
void SuppressedBestEffort(PageFile& file) {
  // sepriv-lint: allow(unchecked-io): best-effort cache warm; failure only
  file.Sync();
}

}  // namespace fixture

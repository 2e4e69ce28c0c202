// Page-file paths for tests that open a Pager or SegmentStore. Test
// binaries run side by side (`ctest -j`, or two copies of one suite),
// and two pagers on one file overwrite each other's pages: a page one
// process wrote and later faults back in can hold the other's bytes,
// so its segment scans decode foreign OID columns. Every path is
// therefore private to the process, and a stale file of the same name
// is removed first so each test starts from an empty file;
// ScopedPagePath also removes it when the test ends.
#ifndef VODAK_TESTS_PAGE_FILE_H_
#define VODAK_TESTS_PAGE_FILE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace vodak {
namespace testing {

inline std::string PrivatePagePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "vodak_" + name + "_" +
                     std::to_string(::getpid()) + ".pages";
  std::remove(path.c_str());
  return path;
}

/// A PrivatePagePath that is removed again when this object goes out of
/// scope, so a test leaves no page file behind. Declare it before the
/// Pager or SegmentStore that opens the path, so it outlives them.
class ScopedPagePath {
 public:
  explicit ScopedPagePath(const std::string& name)
      : path_(PrivatePagePath(name)) {}
  ~ScopedPagePath() { std::remove(path_.c_str()); }
  ScopedPagePath(const ScopedPagePath&) = delete;
  ScopedPagePath& operator=(const ScopedPagePath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing
}  // namespace vodak

#endif  // VODAK_TESTS_PAGE_FILE_H_

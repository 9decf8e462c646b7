// Atomic, crash-durable artifact writes, shared by both on-disk formats
// (the PCDEWF1 model artifact and the PCDEMF1 shard manifest): write
// a temp sibling on a raw fd, fsync it, rename into place, then fsync the
// parent directory. The fsyncs are what make the temp+rename dance actually
// atomic across a crash — without them the kernel may expose the new name
// before the data blocks (or the directory entry itself) reach stable
// storage, and a reboot can leave a zero-length or torn "committed"
// artifact. Every step carries a fault site so tests can sweep the whole
// lifecycle; the temp sibling is unlinked on every error path.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/fault_injection.h"
#include "common/status.h"

namespace pcde {
namespace core {

class AtomicFileWriter {
 public:
  /// `who` prefixes error messages; `site_prefix` names the fault sites
  /// ("<prefix>.open/.write/.fsync/.rename"; the parent-directory sync is
  /// the shared "serialization.dirsync").
  AtomicFileWriter(const char* who, const char* site_prefix, std::string path)
      : who_(who),
        path_(std::move(path)),
        tmp_(path_ + ".tmp." + std::to_string(::getpid())),
        open_site_(fault::FaultSite::Named(std::string(site_prefix) + ".open")),
        write_site_(
            fault::FaultSite::Named(std::string(site_prefix) + ".write")),
        fsync_site_(
            fault::FaultSite::Named(std::string(site_prefix) + ".fsync")),
        rename_site_(
            fault::FaultSite::Named(std::string(site_prefix) + ".rename")),
        dirsync_site_(fault::FaultSite::Named("serialization.dirsync")) {}

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  ~AtomicFileWriter() {
    if (fd_ >= 0) ::close(fd_);
    // Until the rename lands, the temp sibling is ours to clean up — on
    // every error path, including a failed rename itself.
    if (!committed_) ::unlink(tmp_.c_str());
  }

  Status Open() {
    if (open_site_.Fire()) {
      errno = EACCES;
    } else {
      // O_CLOEXEC: a concurrently fork+exec'd child (trainer shelling out,
      // test harness) must not inherit a half-written artifact fd and keep
      // the temp file alive past our unlink.
      fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
    }
    if (fd_ < 0) return Fail("cannot open " + tmp_);
    return Status::OK();
  }

  Status Write(const void* data, size_t nbytes) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (nbytes > 0) {
      ssize_t n;
      if (write_site_.Fire()) {
        // Injected ENOSPC mid-stream: land half the remaining bytes for
        // real first, so the temp file is genuinely torn — the shape the
        // cleanup path must survive, not just a clean zero-byte file.
        const size_t half = nbytes / 2;
        if (half > 0) (void)!::write(fd_, p, half);
        errno = ENOSPC;
        n = -1;
      } else {
        n = ::write(fd_, p, nbytes);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return Fail("write failed for " + tmp_);
      }
      p += n;
      nbytes -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// fsync(temp) -> close -> rename -> fsync(parent dir), in that order:
  /// the payload must be durable before the rename exposes the new name,
  /// and the directory entry must be durable before the save reports
  /// success. A dirsync failure is reported even though the rename already
  /// landed — the new artifact is visible but its durability is not
  /// guaranteed, and callers treat the save as failed.
  Status Commit() {
    int rc = fsync_site_.Fire() ? (errno = EIO, -1) : ::fsync(fd_);
    if (rc != 0) return Fail("fsync failed for " + tmp_);
    rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Fail("close failed for " + tmp_);
    rc = rename_site_.Fire() ? (errno = EXDEV, -1)
                             : std::rename(tmp_.c_str(), path_.c_str());
    if (rc != 0) return Fail("cannot rename into " + path_);
    committed_ = true;  // tmp no longer exists under its own name
    return SyncParentDir();
  }

 private:
  Status Fail(const std::string& what) {
    const int err = errno;
    return Status::Internal(std::string(who_) + ": " + what + " (" +
                            std::strerror(err) + ")");
  }

  Status SyncParentDir() {
    const size_t slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : slash == 0 ? std::string("/")
                                             : path_.substr(0, slash);
    int dfd = -1;
    if (dirsync_site_.Fire()) {
      errno = EIO;
    } else {
      dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    }
    if (dfd < 0) return Fail("cannot open directory " + dir + " for fsync");
    if (::fsync(dfd) != 0) {
      const int err = errno;
      ::close(dfd);
      errno = err;
      return Fail("directory fsync failed for " + dir);
    }
    ::close(dfd);
    return Status::OK();
  }

  const char* who_;
  const std::string path_;
  const std::string tmp_;
  fault::FaultSite& open_site_;
  fault::FaultSite& write_site_;
  fault::FaultSite& fsync_site_;
  fault::FaultSite& rename_site_;
  fault::FaultSite& dirsync_site_;
  int fd_ = -1;
  bool committed_ = false;
};

}  // namespace core
}  // namespace pcde

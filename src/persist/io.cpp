#include "persist/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace pdbscan::persist {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return path + ": " + what + ": " + std::strerror(errno);
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw PersistError(Errno("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const PersistError err(Errno("cannot stat", path));
    ::close(fd);
    throw err;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw PersistError(path + ": empty file");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) throw PersistError(Errno("mmap failed", path));
  return std::shared_ptr<const MappedFile>(
      new MappedFile(path, static_cast<const uint8_t*>(map), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw PersistError(Errno("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const PersistError err(Errno("cannot stat", path));
    ::close(fd);
    throw err;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got =
        ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      const PersistError err(Errno("read failed", path));
      ::close(fd);
      throw err;
    }
    if (got == 0) break;  // Shrank underneath us; size check catches it.
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

std::vector<uint8_t> ReadPrefixBytes(const std::string& path,
                                     size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw PersistError(Errno("cannot open", path));
  std::vector<uint8_t> bytes(max_bytes);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      const PersistError err(Errno("read failed", path));
      ::close(fd);
      throw err;
    }
    if (got == 0) break;
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    throw PersistError(Errno("cannot stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp") {
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) throw PersistError(Errno("cannot create", tmp_path_));
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_) ::unlink(tmp_path_.c_str());
}

void AtomicFileWriter::Write(const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < bytes) {
    const ssize_t put = ::write(fd_, p + done, bytes - done);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw PersistError(Errno("write failed", tmp_path_));
    }
    done += static_cast<size_t>(put);
  }
  position_ += bytes;
}

void AtomicFileWriter::PadTo(uint64_t offset) {
  if (offset < position_) {
    throw PersistError(tmp_path_ + ": PadTo would move backwards");
  }
  static constexpr char kZeros[64] = {};
  while (position_ < offset) {
    const size_t chunk =
        std::min<uint64_t>(sizeof(kZeros), offset - position_);
    Write(kZeros, chunk);
  }
}

void AtomicFileWriter::Overwrite(uint64_t offset, const void* data,
                                 size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < bytes) {
    const ssize_t put =
        ::pwrite(fd_, p + done, bytes - done,
                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      throw PersistError(Errno("pwrite failed", tmp_path_));
    }
    done += static_cast<size_t>(put);
  }
}

void AtomicFileWriter::Commit() {
  if (::fsync(fd_) != 0) throw PersistError(Errno("fsync failed", tmp_path_));
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw PersistError(Errno("close failed", tmp_path_));
  }
  fd_ = -1;
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw PersistError(Errno("rename failed", path_));
  }
  committed_ = true;
  // The rename is atomic but not durable until the PARENT DIRECTORY is
  // fsync'ed; without this, a power loss could durably apply a later
  // journal segment prune while losing the checkpoint rename that covered
  // the pruned records — exactly the ordering checkpoint + prune depends
  // on.
  const size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) throw PersistError(Errno("cannot open directory", dir));
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) throw PersistError(Errno("directory fsync failed", dir));
}

AppendFile::AppendFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw PersistError(Errno("cannot open", path));
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    const PersistError err(Errno("cannot stat", path));
    ::close(fd_);
    fd_ = -1;
    throw err;
  }
  size_ = static_cast<uint64_t>(st.st_size);
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendFile::Append(const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < bytes) {
    const ssize_t put = ::write(fd_, p + done, bytes - done);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw PersistError(Errno("append failed", path_));
    }
    done += static_cast<size_t>(put);
  }
  size_ += bytes;
}

void AppendFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    throw PersistError(Errno("fdatasync failed", path_));
  }
}

void AppendFile::TruncateTo(uint64_t bytes) {
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    throw PersistError(Errno("ftruncate failed", path_));
  }
  size_ = bytes;
  Sync();
}

}  // namespace pdbscan::persist

//! The CFS NFS service: an [`FfsService`] with cipher hooks.

use std::sync::Arc;

use ffs::Ffs;
use nfsv2::{
    DirOpArgs, FHandle, Fattr, FfsService, NfsService, NfsStat, ReaddirEntry, RequestCtx, Sattr,
    StatfsRes,
};

use crate::cipher::CfsCipher;

/// A CFS server: plain NFS semantics with optional server-side
/// encryption of contents and names.
pub struct CfsService {
    inner: FfsService,
    cipher: Option<CfsCipher>,
}

impl CfsService {
    /// An encrypting CFS export.
    pub fn encrypting(fs: Arc<Ffs>, fsid: u32, cipher: CfsCipher) -> CfsService {
        CfsService {
            inner: FfsService::new(fs, fsid),
            cipher: Some(cipher),
        }
    }

    /// The CFS-NE baseline: the CFS code path with a null cipher.
    pub fn passthrough(fs: Arc<Ffs>, fsid: u32) -> CfsService {
        CfsService {
            inner: FfsService::new(fs, fsid),
            cipher: None,
        }
    }

    /// The underlying plain service (test access to server-side bytes).
    pub fn inner(&self) -> &FfsService {
        &self.inner
    }

    fn enc_name(&self, name: &str) -> String {
        match &self.cipher {
            Some(c) => c.encrypt_name(name),
            None => name.to_string(),
        }
    }

    fn enc_args(&self, args: &DirOpArgs) -> DirOpArgs {
        DirOpArgs {
            dir: args.dir,
            name: self.enc_name(&args.name),
        }
    }
}

impl NfsService for CfsService {
    fn mount(&self, ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat> {
        // Path components are stored encrypted; translate before resolve.
        match &self.cipher {
            None => self.inner.mount(ctx, path),
            Some(c) => {
                let encrypted: Vec<String> = path
                    .split('/')
                    .filter(|p| !p.is_empty())
                    .map(|p| c.encrypt_name(p))
                    .collect();
                self.inner.mount(ctx, &encrypted.join("/"))
            }
        }
    }

    fn getattr(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat> {
        self.inner.getattr(ctx, fh)
    }

    fn setattr(&self, ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat> {
        self.inner.setattr(ctx, fh, sattr)
    }

    fn lookup(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat> {
        self.inner.lookup(ctx, &self.enc_args(args))
    }

    fn readlink(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat> {
        let stored = self.inner.readlink(ctx, fh)?;
        match &self.cipher {
            None => Ok(stored),
            Some(c) => c.decrypt_name(&stored).ok_or(NfsStat::Io),
        }
    }

    fn read(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat> {
        let (attr, mut data) = self.inner.read(ctx, fh, offset, count)?;
        if let Some(c) = &self.cipher {
            let (_, ino, _) = fh.unpack();
            c.apply_content(ino, offset as u64, &mut data);
        }
        Ok((attr, data))
    }

    fn write(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat> {
        match &self.cipher {
            None => self.inner.write(ctx, fh, offset, data),
            Some(c) => {
                let (_, ino, _) = fh.unpack();
                let mut encrypted = data.to_vec();
                c.apply_content(ino, offset as u64, &mut encrypted);
                self.inner.write(ctx, fh, offset, &encrypted)
            }
        }
    }

    fn create(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        self.inner.create(ctx, &self.enc_args(args), sattr)
    }

    fn remove(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.inner.remove(ctx, &self.enc_args(args))
    }

    fn rename(&self, ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.inner
            .rename(ctx, &self.enc_args(from), &self.enc_args(to))
    }

    fn link(&self, ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.inner.link(ctx, from, &self.enc_args(to))
    }

    fn symlink(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), NfsStat> {
        let stored_target = self.enc_name(target);
        self.inner
            .symlink(ctx, &self.enc_args(args), &stored_target, sattr)
    }

    fn mkdir(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        self.inner.mkdir(ctx, &self.enc_args(args), sattr)
    }

    fn rmdir(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.inner.rmdir(ctx, &self.enc_args(args))
    }

    fn readdir(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat> {
        let (entries, eof) = self.inner.readdir(ctx, fh, cookie, count)?;
        match &self.cipher {
            None => Ok((entries, eof)),
            Some(c) => {
                let decrypted = entries
                    .into_iter()
                    .map(|e| ReaddirEntry {
                        fileid: e.fileid,
                        // Undecryptable names (foreign files) are shown
                        // in their stored form, as real CFS does.
                        name: c.decrypt_name(&e.name).unwrap_or(e.name),
                        cookie: e.cookie,
                    })
                    .collect();
                Ok((decrypted, eof))
            }
        }
    }

    fn statfs(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat> {
        self.inner.statfs(ctx, fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discfs_crypto::ed25519::SigningKey;
    use ffs::FsConfig;
    use ipsec::PlainChannel;
    use netsim::{Link, SimClock};
    use nfsv2::{Engine, EngineConfig, NfsClient, RemoteFs};

    fn setup(cipher: Option<CfsCipher>) -> (RemoteFs, Arc<Ffs>, Engine) {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        let service = Arc::new(match cipher {
            Some(c) => CfsService::encrypting(fs.clone(), 1, c),
            None => CfsService::passthrough(fs.clone(), 1),
        });
        let key = SigningKey::from_seed(&[2; 32]);
        let engine = Engine::start(service, key, EngineConfig::default());
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        (RemoteFs::mount(client, "/").unwrap(), fs, engine)
    }

    #[test]
    fn passthrough_stores_plaintext() {
        let (remote, fs, _engine) = setup(None);
        remote.write_file("plain.txt", b"visible bytes").unwrap();
        let ino = fs.lookup(fs.root(), "plain.txt").unwrap();
        assert_eq!(fs.read(ino, 0, 100).unwrap(), b"visible bytes");
    }

    #[test]
    fn encrypting_stores_ciphertext() {
        let (remote, fs, _engine) = setup(Some(CfsCipher::new(&[7; 32])));
        remote.write_file("secret.txt", b"hidden bytes!").unwrap();

        // The client sees plaintext.
        assert_eq!(remote.read_file("secret.txt").unwrap(), b"hidden bytes!");

        // The server-side name is encrypted.
        let entries = fs.readdir(fs.root()).unwrap();
        let stored: Vec<&str> = entries
            .iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(stored.len(), 1);
        assert_ne!(stored[0], "secret.txt");

        // The server-side content is ciphertext.
        let ino = fs.lookup(fs.root(), stored[0]).unwrap();
        let on_disk = fs.read(ino, 0, 100).unwrap();
        assert_eq!(on_disk.len(), 13);
        assert_ne!(on_disk, b"hidden bytes!");
    }

    #[test]
    fn random_access_through_encryption() {
        let (remote, _, _engine) = setup(Some(CfsCipher::new(&[8; 32])));
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let fh = remote.write_file("big.bin", &payload).unwrap();
        // Unaligned mid-file read.
        let chunk = remote.client().read_all(&fh, 9_999, 5_000).unwrap();
        assert_eq!(chunk, &payload[9_999..14_999]);
        // Overwrite mid-file, re-read whole.
        remote.client().write_all(&fh, 100, b"PATCH").unwrap();
        let whole = remote.read_file("big.bin").unwrap();
        assert_eq!(&whole[100..105], b"PATCH");
        assert_eq!(&whole[..100], &payload[..100]);
        assert_eq!(&whole[105..], &payload[105..]);
    }

    #[test]
    fn directories_and_dot_entries() {
        let (remote, _, _engine) = setup(Some(CfsCipher::new(&[9; 32])));
        remote.mkdir_path("projects").unwrap();
        remote
            .write_file("projects/paper.tex", b"\\begin{document}")
            .unwrap();
        let (dir_fh, _) = remote.resolve("projects").unwrap();
        let names: Vec<String> = remote
            .client()
            .readdir_all(&dir_fh)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&".".to_string()));
        assert!(names.contains(&"..".to_string()));
        assert!(names.contains(&"paper.tex".to_string()), "{names:?}");
    }

    #[test]
    fn mount_translates_encrypted_paths() {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        let cipher = CfsCipher::new(&[10; 32]);
        let service = Arc::new(CfsService::encrypting(fs.clone(), 1, cipher.clone()));
        let key = SigningKey::from_seed(&[2; 32]);
        let engine = Engine::start(service, key, EngineConfig::default());
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        let remote = RemoteFs::mount(client, "/").unwrap();
        remote.mkdir_path("exported").unwrap();
        // Mounting the subdirectory by its *plain* name works.
        let fh = remote.client().mount("/exported").unwrap();
        let attr = remote.client().getattr(&fh).unwrap();
        assert_eq!(attr.ftype, nfsv2::FType::Directory);
    }

    #[test]
    fn symlink_targets_encrypted() {
        let (remote, fs, _engine) = setup(Some(CfsCipher::new(&[11; 32])));
        remote
            .client()
            .symlink(&remote.root(), "ln", "target-name", &Sattr::unchanged())
            .unwrap();
        let (fh, _) = remote.resolve("ln").unwrap();
        assert_eq!(remote.client().readlink(&fh).unwrap(), "target-name");
        // Stored form differs.
        let entries = fs.readdir(fs.root()).unwrap();
        let stored_name = entries
            .iter()
            .find(|e| e.name != "." && e.name != "..")
            .unwrap();
        let ino = stored_name.ino;
        assert_ne!(fs.readlink(ino).unwrap(), "target-name");
    }

    #[test]
    fn wrong_key_sees_garbage() {
        // Write with key A, then serve the same volume with key B.
        let clock = SimClock::new();
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        {
            let (client_end, server_end) = Link::loopback(&clock);
            let service = Arc::new(CfsService::encrypting(
                fs.clone(),
                1,
                CfsCipher::new(&[1; 32]),
            ));
            let key = SigningKey::from_seed(&[2; 32]);
            let engine = Engine::start(service, key, EngineConfig::default());
            engine.accept_channel(Box::new(PlainChannel::new(server_end)));
            let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
            let remote = RemoteFs::mount(client, "/").unwrap();
            remote.write_file("doc.txt", b"plaintext body").unwrap();
        }
        let (client_end, server_end) = Link::loopback(&clock);
        let service = Arc::new(CfsService::encrypting(
            fs.clone(),
            1,
            CfsCipher::new(&[2; 32]),
        ));
        let key = SigningKey::from_seed(&[2; 32]);
        let engine = Engine::start(service, key, EngineConfig::default());
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        let remote = RemoteFs::mount(client, "/").unwrap();
        // The name does not decrypt under key B: shown in stored form.
        let names = remote.client().readdir_all(&remote.root()).unwrap();
        let foreign = names
            .iter()
            .find(|e| e.name != "." && e.name != "..")
            .unwrap();
        assert_ne!(foreign.name, "doc.txt");
        // Neither the plain name nor the stored name resolves through
        // the key-B layer (LOOKUP re-encrypts whatever name is given),
        // so the file is unreachable without the right key.
        assert!(remote.read_file("doc.txt").is_err());
        assert!(remote.read_file(&foreign.name).is_err());
        // Reading the raw inode directly shows ciphertext, not the body.
        let ino = fs.lookup(fs.root(), &foreign.name).unwrap();
        assert_ne!(fs.read(ino, 0, 100).unwrap(), b"plaintext body");
    }
}
